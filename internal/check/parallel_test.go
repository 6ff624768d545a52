package check

import (
	"fmt"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// normStats zeroes the one field that deliberately differs between the
// engines: ParallelRounds counts pool fan-outs, which the sequential engine
// never performs. Everything else — verdict counters, resumes, rebuilds,
// explored configurations, GC and frontier gauges — must be bit-identical.
func normStats(s IncStats) IncStats { s.ParallelRounds = 0; return s }

// splitBursts chops h into c-event appends.
func splitBursts(h history.History, c int) []history.History {
	var out []history.History
	for len(h) > 0 {
		n := c
		if n > len(h) {
			n = len(h)
		}
		out = append(out, h[:n])
		h = h[n:]
	}
	return out
}

// runEquiv drives a sequential and a parallel monitor through the same burst
// stream and fails on any divergence in verdicts, stats or retained state.
func runEquiv(t *testing.T, m spec.Model, bursts []history.History, pol *RetentionPolicy, workers int, label string) {
	t.Helper()
	var cfg Config
	if pol != nil {
		cfg = Config{Retain: true, Retention: *pol}
	}
	seq := NewIncremental(m, WithConfig(cfg))
	cfg.Parallelism = workers
	par := NewIncremental(m, WithConfig(cfg))
	for k, b := range bursts {
		vs := seq.Append(b)
		vp := par.Append(b)
		if vs != vp {
			t.Fatalf("%s: burst %d: sequential verdict %v, parallel(%d) verdict %v", label, k, vs, workers, vp)
		}
		if ss, ps := normStats(seq.Stats()), normStats(par.Stats()); ss != ps {
			t.Fatalf("%s: burst %d: stats diverged\nseq: %+v\npar: %+v", label, k, ss, ps)
		}
		if seq.FrontierSize() != par.FrontierSize() {
			t.Fatalf("%s: burst %d: frontier size %d vs %d", label, k, seq.FrontierSize(), par.FrontierSize())
		}
		if seq.Discarded() != par.Discarded() || len(seq.History()) != len(par.History()) {
			t.Fatalf("%s: burst %d: retention diverged (discarded %d vs %d, window %d vs %d)",
				label, k, seq.Discarded(), par.Discarded(), len(seq.History()), len(par.History()))
		}
	}
}

// TestParallelMonitorEquivalence is the property suite of the parallel
// engine: across all eight models, random streams (and violating mutations)
// delivered in bursts, the parallel monitor matches the sequential one on
// every verdict and every deterministic counter, with and without retention.
func TestParallelMonitorEquivalence(t *testing.T) {
	pol := RetentionPolicy{GCBatch: 16}
	seedsPer := int64(4)
	if testing.Short() {
		seedsPer = 2
	}
	for _, m := range fuzzModels() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			for _, procs := range []int{2, 4} {
				for _, size := range []int{24, 60} {
					for seed := int64(0); seed < seedsPer; seed++ {
						h := trace.RandomLinearizable(m, 500*seed+int64(procs+size), procs, size)
						label := fmt.Sprintf("p=%d size=%d seed=%d", procs, size, seed)
						runEquiv(t, m, splitBursts(h, 7), &pol, 4, label+" retained")
						runEquiv(t, m, splitBursts(h, 7), nil, 4, label+" full-witness")
						bad := trace.Mutate(h, seed+3)
						runEquiv(t, m, splitBursts(bad, 7), &pol, 4, label+" mutated")
					}
				}
			}
		})
	}
}

// TestParallelFrontierEquivalence drives both reveal variants of the
// multi-state frontier workload — the stream the fan-out exists for — at
// several worker widths, including widths that leave workers idle and widths
// far above the state count.
func TestParallelFrontierEquivalence(t *testing.T) {
	pol := RetentionPolicy{GCBatch: 32}
	for _, revealFirst := range []bool{false, true} {
		for _, workers := range []int{2, 3, 8} {
			label := fmt.Sprintf("revealFirst=%v workers=%d", revealFirst, workers)
			runEquiv(t, spec.Queue(), trace.FrontierRounds(4, revealFirst), &pol, workers, label)
		}
	}
}

// TestFrontierWorkloadShape pins the properties the B11 frontier family and
// the tests above rely on: each ambiguity burst leaves six live frontier
// states, each reveal burst collapses them back to one and garbage-collects,
// and the parallel engine actually fans out (ParallelRounds advances).
func TestFrontierWorkloadShape(t *testing.T) {
	pol := RetentionPolicy{GCBatch: 32}
	seq := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: pol}))
	par := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: pol, Parallelism: 4}))
	bursts := trace.FrontierRounds(3, false)
	for k, b := range bursts {
		if seq.Append(b) != Yes || par.Append(b) != Yes {
			t.Fatalf("burst %d: correct stream refuted", k)
		}
		want := 6
		if k%2 == 1 {
			want = 1
		}
		if got := seq.FrontierSize(); got != want {
			t.Fatalf("burst %d: frontier size %d, want %d (workload lost its ambiguity shape)", k, got, want)
		}
	}
	if seq.Discarded() == 0 {
		t.Fatal("reveal bursts never garbage-collected")
	}
	if par.Stats().ParallelRounds == 0 {
		t.Fatal("parallel monitor never fanned out on the frontier workload")
	}
	var tasks int
	for _, w := range par.WorkerStats() {
		tasks += w.Tasks
	}
	if tasks == 0 {
		t.Fatal("worker stats recorded no tasks")
	}
	if seq.Stats().SegExplored == 0 {
		t.Fatal("SegExplored never advanced; refutations did not search")
	}
}

// TestParallelFanOutRace is the -race stress for concurrent frontier fan-out
// and first-witness early-cancel: the reveal-first variant makes the witness
// land at position 0 immediately, so the five speculative refutations are
// cancelled mid-run on almost every round, and wide pools exercise the
// claim/cancel/join edges under contention. Verdicts must stay exact
// throughout, including on the violating tail.
func TestParallelFanOutRace(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	pol := RetentionPolicy{GCBatch: 32}
	for _, revealFirst := range []bool{true, false} {
		par := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: pol, Parallelism: 8}))
		for k, b := range trace.FrontierRounds(rounds, revealFirst) {
			if par.Append(b) != Yes {
				t.Fatalf("revealFirst=%v: burst %d refuted a correct stream", revealFirst, k)
			}
		}
		// A phantom dequeue is not linearizable from any frontier state: the
		// all-workers-refute join must turn into a sticky No.
		bad := history.History{
			{Kind: history.Invoke, Proc: 1, ID: 99991, Op: spec.Operation{Method: spec.MethodDeq, Uniq: 99991}},
			{Kind: history.Return, Proc: 1, ID: 99991, Op: spec.Operation{Method: spec.MethodDeq, Uniq: 99991},
				Res: spec.ValueResp(123456789)},
		}
		if par.Append(bad) != No {
			t.Fatalf("revealFirst=%v: phantom dequeue accepted", revealFirst)
		}
		if par.Append(bad[:1]) != No {
			t.Fatalf("revealFirst=%v: violation not sticky", revealFirst)
		}
	}
}

// TestShardsEquivalence checks the cross-shard fan-out axis: every shard's
// verdict and stats equal a standalone sequential monitor fed the same
// bursts, and the merged stats are the shard-order fold.
func TestShardsEquivalence(t *testing.T) {
	models := fuzzModels()
	sh := NewShards(models, 4)
	solo := make([]*Incremental, len(models))
	for i, m := range models {
		solo[i] = NewIncremental(m)
	}
	var streams [][]history.History
	maxBursts := 0
	for i, m := range models {
		h := trace.RandomLinearizable(m, int64(31+i), 3, 36)
		if i%3 == 2 {
			h = trace.Mutate(h, int64(i)) // some shards go No mid-stream
		}
		b := splitBursts(h, 9)
		streams = append(streams, b)
		if len(b) > maxBursts {
			maxBursts = len(b)
		}
	}
	for k := 0; k < maxBursts; k++ {
		deltas := make([]history.History, len(models))
		for i := range models {
			if k < len(streams[i]) {
				deltas[i] = streams[i][k]
			}
		}
		got := sh.Append(deltas)
		for i := range models {
			if deltas[i] == nil {
				continue
			}
			want := solo[i].Append(deltas[i])
			if got[i] != want {
				t.Fatalf("burst %d shard %d (%s): verdict %v, standalone %v", k, i, models[i].Name(), got[i], want)
			}
		}
	}
	var want IncStats
	for i := range solo {
		want.add(solo[i].Stats())
		if sh.Shard(i).Stats() != solo[i].Stats() {
			t.Fatalf("shard %d stats diverged from standalone monitor", i)
		}
	}
	if sh.Stats() != want {
		t.Fatalf("merged stats %+v, want %+v", sh.Stats(), want)
	}
	wantV := Yes
	for i := range solo {
		if solo[i].Verdict() == No {
			wantV = No
		}
	}
	if sh.Verdict() != wantV {
		t.Fatalf("folded verdict %v, want %v", sh.Verdict(), wantV)
	}
}

// FuzzParallelSegments drives the engine equivalence from the native fuzzer:
// the input picks a model, concurrency, history size, burst size, worker
// width and mutation seed.
func FuzzParallelSegments(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(40), uint8(5), uint8(4), int64(1))
	f.Add(uint8(1), uint8(2), uint8(60), uint8(11), uint8(3), int64(9))
	f.Add(uint8(7), uint8(4), uint8(24), uint8(2), uint8(8), int64(3))
	f.Fuzz(func(t *testing.T, which, procs, size, burst, workers uint8, seed int64) {
		models := fuzzModels()
		m := models[int(which)%len(models)]
		p := 2 + int(procs)%4
		n := 4 + int(size)%64
		c := 1 + int(burst)%16
		w := 2 + int(workers)%7
		pol := RetentionPolicy{GCBatch: 16}
		h := trace.RandomLinearizable(m, seed, p, n)
		runEquiv(t, m, splitBursts(h, c), &pol, w, "fuzz")
		runEquiv(t, m, splitBursts(trace.Mutate(h, seed+1), c), &pol, w, "fuzz mutated")
	})
}
