package check

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// parkModels is every model spec.ByName can rebuild, so every one a
// checkpoint image (and therefore Park's contract) covers.
var parkModels = []string{"queue", "stack", "set", "pqueue", "counter", "register", "consensus"}

// imageBytes is the JSON form of inc's checkpoint image.
func imageBytes(t *testing.T, inc *Incremental) []byte {
	t.Helper()
	img, err := inc.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	raw, err := json.Marshal(img)
	if err != nil {
		t.Fatalf("marshal image: %v", err)
	}
	return raw
}

// parkCase is what checkParkResume observed, for the coverage assertions of
// its callers.
type parkCase struct {
	stickyNo bool // the monitor was refuted when parked
	pending  bool // an operation was open across the park
}

// checkParkResume drives three monitors over deltas: ref uninterrupted, and
// parked, which Park shrinks before delta cut while restored is rebuilt there
// from its checkpoint image. Right after Park, before any Append, the parked
// form must answer for the window and the frontier: the image, History event
// for event and FrontierSize must not change across Park, and reading them
// must leave the monitor parked. From the park on, parked and restored must
// agree on every verdict and on IncStats exactly, and both must agree with
// ref's verdicts. At the end parked is parked once more and both reload
// their window.
func checkParkResume(t *testing.T, m spec.Model, cfg Config, deltas []history.History, cut int) parkCase {
	t.Helper()
	ref := NewIncremental(m, WithConfig(cfg))
	parked := NewIncremental(m, WithConfig(cfg))
	var restored *Incremental
	var pc parkCase
	park := func() {
		pc.stickyNo = parked.Verdict() == No
		pc.pending = len(parked.pendingOp) > 0
		restored = roundTripImage(t, parked)
		before := imageBytes(t, parked)
		window := slices.Clone(parked.History())
		size := parked.FrontierSize()
		parked.Park()
		if after := imageBytes(t, parked); !bytes.Equal(before, after) {
			t.Fatalf("%s: Park changed the checkpoint image:\n%s\nvs\n%s", m.Name(), before, after)
		}
		if got := parked.History(); !slices.Equal(got, window) {
			t.Fatalf("%s: History after Park\n%v\nwant\n%v", m.Name(), got, window)
		}
		if got := parked.FrontierSize(); got != size {
			t.Fatalf("%s: FrontierSize %d after Park, %d before", m.Name(), got, size)
		}
		if parked.parked == nil {
			t.Fatalf("%s: reading a parked monitor unpacked it", m.Name())
		}
		if parked.Stats() != restored.Stats() {
			t.Fatalf("%s: stats at park\nparked:   %+v\nrestored: %+v", m.Name(), parked.Stats(), restored.Stats())
		}
	}
	for i, d := range deltas {
		if i == cut {
			park()
		}
		want := ref.Append(d)
		got := parked.Append(d)
		if got != want {
			t.Fatalf("%s park at %d: delta %d verdict %v, uninterrupted %v", m.Name(), cut, i, got, want)
		}
		if restored == nil {
			continue
		}
		if rv := restored.Append(d); rv != got {
			t.Fatalf("%s park at %d: delta %d verdict %v, restored %v", m.Name(), cut, i, got, rv)
		}
		if ps, rs := parked.Stats(), restored.Stats(); ps != rs {
			t.Fatalf("%s park at %d: delta %d stats diverge\nparked:   %+v\nrestored: %+v", m.Name(), cut, i, ps, rs)
		}
	}
	if cut == len(deltas) {
		park()
	}
	if (parked.Err() != nil) != (ref.Err() != nil) {
		t.Fatalf("%s park at %d: error %v, uninterrupted %v", m.Name(), cut, parked.Err(), ref.Err())
	}
	// A window reload unpacks too: parked again, reloading its own window
	// must answer as the restored monitor does.
	parked.Park()
	window := parked.History()
	if got, want := parked.ReloadWindow(window), restored.ReloadWindow(window); got != want {
		t.Fatalf("%s park at %d: reload verdict %v, restored %v", m.Name(), cut, got, want)
	}
	if ps, rs := parked.Stats(), restored.Stats(); ps != rs {
		t.Fatalf("%s park at %d: stats diverge after reload\nparked:   %+v\nrestored: %+v", m.Name(), cut, ps, rs)
	}
	return pc
}

// TestParkMatchesRestore: a parked monitor is a restored one — same image,
// same verdicts and same IncStats from the park on — across every model,
// the configuration sweep, clean and mutated streams and random park points,
// including parks over a sticky No and parks with an operation open.
func TestParkMatchesRestore(t *testing.T) {
	var sticky, pending int
	for _, name := range parkModels {
		m, _ := spec.ByName(name)
		for ci, cfg := range ckptConfigs() {
			for seed := int64(1); seed <= 6; seed++ {
				h := trace.RandomLinearizable(m, seed+int64(ci)*101, 3, 36)
				if seed%2 == 0 {
					h = trace.Mutate(h, seed*37)
				}
				rng := rand.New(rand.NewSource(seed*17 + int64(ci)))
				deltas := chunks(h, rng)
				pc := checkParkResume(t, m, cfg, deltas, rng.Intn(len(deltas)+1))
				if pc.stickyNo {
					sticky++
				}
				if pc.pending {
					pending++
				}
			}
		}
	}
	// The sweep must actually reach the two edge cases it promises.
	if sticky == 0 || pending == 0 {
		t.Fatalf("sweep parked %d refuted monitors and %d with an open operation; want both > 0", sticky, pending)
	}

	// The row for the packed window's codec: a method outside spec's
	// constants, negative arguments and values, Uniq unlike ID, and ids at
	// both ends of uint64. Parked at every delta, in every configuration;
	// the clean stream stays Yes (the foreign operation never returns, so
	// a linearization may omit it), the refuted one turns No when it does.
	reg, _ := spec.ByName("register")
	for _, refuted := range []bool{false, true} {
		deltas := codecEdgeStream(refuted)
		probe := NewIncremental(reg, WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 8}}))
		var v Verdict
		for _, d := range deltas {
			v = probe.Append(d)
		}
		want := Yes
		if refuted {
			want = No
		}
		if v != want || probe.Discarded() == 0 {
			t.Fatalf("codec row (refuted %v): verdict %v, %d events collected; want the verdict to follow refuted and a collection",
				refuted, v, probe.Discarded())
		}
		for _, cfg := range ckptConfigs() {
			for cut := 0; cut <= len(deltas); cut++ {
				checkParkResume(t, reg, cfg, deltas, cut)
			}
		}
	}
}

// codecEdgeStream is a register stream, one or two events per delta, whose
// events stress every field of the parked window's codec. Writes and reads
// alternate on processes 0 and 1 with quiescent moments between them, so
// retention collects past ids near 2^64; process 2 then invokes "Frob", a
// method no model knows, which returns only when refuted is set, after
// which the history is no longer linearizable.
func codecEdgeStream(refuted bool) []history.History {
	const top = ^uint64(0)
	inv := func(proc int, id uint64, method string, arg int64, uniq uint64) history.Event {
		return history.Event{Kind: history.Invoke, Proc: proc, ID: id, Op: spec.Operation{Method: method, Arg: arg, Uniq: uniq}}
	}
	ret := func(e history.Event, res spec.Response) history.Event {
		e.Kind, e.Res = history.Return, res
		return e
	}
	var deltas []history.History
	vals := []int64{-5, -1 << 62, 1<<63 - 1, -1 << 63, -7, 3, -2, 0, -9, 12}
	for i, v := range vals {
		id := top - uint64(3*len(vals)) + uint64(3*i)
		w := inv(0, id, spec.MethodWrite, v, id^0x5a5a)
		r := inv(1, id+1, spec.MethodRead, 0, uint64(i))
		deltas = append(deltas,
			history.History{w, r},
			history.History{ret(w, spec.OKResp())},
			history.History{ret(r, spec.ValueResp(v))})
	}
	frob := inv(2, 7, "Frob", -3, top)
	w := inv(0, 2, spec.MethodWrite, -11, top-1)
	r := inv(1, top, spec.MethodRead, 0, 9)
	deltas = append(deltas,
		history.History{frob, w},
		history.History{ret(w, spec.OKResp()), r},
		history.History{ret(r, spec.ValueResp(-11))})
	if refuted {
		deltas = append(deltas, history.History{ret(frob, spec.ValueResp(-4))})
	}
	return deltas
}

// unnamedCounter is the counter under a name spec.ByName does not know, so
// neither Checkpoint nor Park supports it.
type unnamedCounter struct{ spec.Model }

func (unnamedCounter) Name() string { return "unnamed-counter" }

// TestParkNeedsRestorableModel: Park leaves a monitor whose model restore
// could not rebuild as it is, and the monitor goes on answering.
func TestParkNeedsRestorableModel(t *testing.T) {
	inc := NewIncremental(unnamedCounter{spec.Counter()})
	deltas := chunks(trace.RandomLinearizable(spec.Counter(), 3, 3, 30), rand.New(rand.NewSource(5)))
	for i, d := range deltas {
		inc.Park()
		if inc.parked != nil || inc.h == nil && i > 0 {
			t.Fatalf("delta %d: Park packed a monitor of a model spec.ByName does not know", i)
		}
		if v := inc.Append(d); v != Yes {
			t.Fatalf("delta %d: verdict %v on a linearizable history", i, v)
		}
	}
}

// FuzzParkResume is the nightly differential fuzzer of Park: random model,
// configuration, stream (clean or mutated) and park point.
func FuzzParkResume(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(3))
	f.Add(int64(2), uint8(1), uint8(1), uint8(9))
	f.Add(int64(4), uint8(2), uint8(2), uint8(30))
	f.Add(int64(17), uint8(4), uint8(0), uint8(0))
	f.Add(int64(29), uint8(5), uint8(3), uint8(5))
	f.Add(int64(36), uint8(6), uint8(1), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, modelSel, cfgSel, cutSel uint8) {
		m, _ := spec.ByName(parkModels[int(modelSel)%len(parkModels)])
		cfgs := ckptConfigs()
		cfg := cfgs[int(cfgSel)%len(cfgs)]
		h := trace.RandomLinearizable(m, seed, 3, 8+int(cutSel)%40)
		if seed%2 == 0 {
			h = trace.Mutate(h, seed*31)
		}
		deltas := chunks(h, rand.New(rand.NewSource(seed*7)))
		checkParkResume(t, m, cfg, deltas, int(cutSel)%(len(deltas)+1))
	})
}

// churnShards builds n objects_churn-style monitors in one Shards — models
// cycling, width-2 histories of 96 events in 32-event batches, every fourth
// one mutated, zero Config — each driven to the end of its stream.
func churnShards(n int) *Shards {
	s := NewShards(nil, 1)
	deltas := make([]history.History, n)
	for i := range n {
		m, _ := spec.ByName(parkModels[i%6])
		h := trace.RandomLinearizable(m, int64(i)*1000003+1, 2, 96)
		if i%4 == 3 {
			h = trace.Mutate(h, int64(i)+1)
		}
		idx := s.Add(m)
		for len(h) > 0 {
			k := min(32, len(h))
			deltas[idx] = h[:k]
			s.Append(deltas)
			h = h[k:]
		}
		deltas[idx] = nil
	}
	return s
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestParkedFootprint: a parked short-lived object costs what its packed
// window and encoded frontier cost, not what its search grew nor 72 B per
// event. 2 000 objects_churn-style monitors, parked as the service parks
// them on bye, hold at most 3 kB of live heap each (about 1.6 kB measured;
// 7.1 kB when Park kept the window as events and the frontier as detached
// states).
func TestParkedFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 2000 monitors")
	}
	const n, budget = 2000, 3 << 10
	before := liveHeap()
	s := churnShards(n)
	for i := 0; i < s.Len(); i++ {
		s.Shard(i).Park()
	}
	after := liveHeap()
	per := (int64(after) - int64(before)) / n
	t.Logf("%d parked monitors: %d B live heap each", n, per)
	if per > budget {
		t.Fatalf("parked monitors hold %d B of live heap each, want <= %d", per, budget)
	}
	runtime.KeepAlive(s)
}

// TestShardsSparseRound: a round with one delta among many shards advances
// only that shard's monitor and leaves every other verdict where it was.
func TestShardsSparseRound(t *testing.T) {
	const n = 1000
	s := churnShards(n)
	before := make([]Verdict, n)
	appends := make([]int, n)
	copy(before, s.Append(nil))
	for i := range n {
		appends[i] = s.Shard(i).Stats().Appends
	}
	const hit = 617
	m := s.Shard(hit).Model()
	deltas := make([]history.History, n)
	deltas[hit] = sequential(m, 5, 1)
	got := s.Append(deltas)
	for i := range n {
		want := appends[i]
		if i == hit {
			want++
		}
		if a := s.Shard(i).Stats().Appends; a != want {
			t.Fatalf("shard %d: %d appends after a round touching only shard %d, want %d", i, a, hit, want)
		}
		if i != hit && got[i] != before[i] {
			t.Fatalf("shard %d: verdict %v after a round it had no delta in, was %v", i, got[i], before[i])
		}
	}
}

// BenchmarkShardsSparseRound prices a round with one delta among 10 000
// shards: the dispatcher's common case on a server holding many idle
// objects.
func BenchmarkShardsSparseRound(b *testing.B) {
	const n = 10000
	m := spec.Counter()
	s := NewShards(nil, 2)
	for range n {
		s.Add(m)
	}
	deltas := make([]history.History, n)
	h := sequential(m, 1, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltas[n/2] = h[2*i : 2*i+2]
		s.Append(deltas)
	}
}

// sequential returns a history of nops operations by one process, each
// returning before the next is invoked.
func sequential(m spec.Model, seed int64, nops int) history.History {
	var uniq trace.UniqSource
	gen := trace.NewOpGen(m.Name(), seed, &uniq)
	oracle := spec.NewOracle(m)
	h := make(history.History, 0, 2*nops)
	for range nops {
		op := gen.Next()
		res, _ := oracle.Apply(op)
		h = append(h,
			history.Event{Kind: history.Invoke, ID: op.Uniq, Op: op},
			history.Event{Kind: history.Return, ID: op.Uniq, Op: op, Res: res})
	}
	return h
}

// frontierStream is search_frontier's per-session stream in miniature:
// rounds trace.FrontierRounds rounds in chunks of ten, the chunks
// alternating between the late and the early reveal order, with ids and
// values shifted per chunk so they stay unique. One burst per delta.
func frontierStream(rounds int) []history.History {
	const per, opsPerRound = 10, 18
	var out []history.History
	for c := 0; c*per < rounds; c++ {
		idOff := uint64(c*per) * opsPerRound
		valOff := int64(c*per) * 100
		for _, b := range trace.FrontierRounds(min(per, rounds-c*per), c%2 == 1) {
			for i := range b {
				e := &b[i]
				e.ID += idOff
				e.Op.Uniq += idOff
				if e.Op.Method == spec.MethodEnq {
					e.Op.Arg += valOff
				}
				if e.Kind == history.Return && e.Res.Kind == spec.KindValue {
					e.Res.Val += valOff
				}
			}
			out = append(out, b)
		}
	}
	return out
}

// TestCutDetachesKeptStates: the states a retained monitor keeps at a cut
// (frontier, GC base) do not hold on to the enumeration walk that
// produced them, nor to the searches rooted at the frontier. One queue
// monitor over 160 frontier rounds holds at most 3.5 MB of live heap between
// appends; when the kept states were the walk's own, it held 10.4 MB. The
// search itself must not change: SegExplored is pinned, with the fast tier
// off, since the tier decides every burst of this stream. (With the tier
// consulted only at the initial state the pin read 1214717: the tier
// answered the first burst, whose search explores 3 configurations.)
func TestCutDetachesKeptStates(t *testing.T) {
	const budget, explored = 3.5e6, 1214720
	bursts := frontierStream(160)
	inc := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, NoFastTier: true}))
	before := liveHeap()
	var peak int64
	for _, b := range bursts {
		if v := inc.Append(b); v != Yes {
			t.Fatalf("frontier stream judged %v", v)
		}
		peak = max(peak, int64(liveHeap())-int64(before))
	}
	t.Logf("peak live heap between appends: %.2f MB", float64(peak)/1e6)
	if peak > budget {
		t.Fatalf("monitor holds %.2f MB of live heap between appends, want <= %.1f MB", float64(peak)/1e6, budget/1e6)
	}
	if got := inc.Stats().SegExplored; got != explored {
		t.Fatalf("SegExplored %d, want %d", got, explored)
	}
	runtime.KeepAlive(inc)
}
