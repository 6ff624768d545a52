package monitorserver_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/history"
	"repro/internal/monitorapi"
	"repro/internal/monitorserver"
	"repro/internal/spec"
	"repro/internal/trace"
)

// rawClient is one session spoken in raw frames, for tests that pin which
// frames the server sends while something else is held.
type rawClient struct {
	t   *testing.T
	nc  net.Conn
	enc *json.Encoder
	dec *json.Decoder
}

// dialRaw connects and opens tenant "t", object obj (queue model).
func dialRaw(t *testing.T, srv *monitorserver.Server, obj string) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := nc.SetDeadline(time.Now().Add(readDeadline)); err != nil {
		t.Fatal(err)
	}
	c := &rawClient{t: t, nc: nc, enc: json.NewEncoder(nc), dec: json.NewDecoder(nc)}
	c.send(monitorapi.ClientFrame{Type: monitorapi.FrameOpen, Open: &monitorapi.Open{
		Version: 1, Tenant: "t", Object: obj, Model: "queue",
	}})
	return c
}

func (c *rawClient) send(f monitorapi.ClientFrame) {
	c.t.Helper()
	if err := c.enc.Encode(f); err != nil {
		c.t.Fatal(err)
	}
}

// batch sends events as batch seq.
func (c *rawClient) batch(seq uint64, events ...history.WireEvent) {
	c.t.Helper()
	c.send(monitorapi.ClientFrame{Type: monitorapi.FrameEvents,
		Batch: &monitorapi.EventBatch{Seq: seq, Events: events}})
}

// read returns the next frame other than a gauge.
func (c *rawClient) read() monitorapi.ServerFrame {
	c.t.Helper()
	for {
		var f monitorapi.ServerFrame
		if err := c.dec.Decode(&f); err != nil {
			c.t.Fatalf("reading frame: %v", err)
		}
		if f.Type != monitorapi.FrameGauge {
			return f
		}
	}
}

// want reads the next frame and fails unless it has type typ and, for an
// ack, sequence seq, verdict verdict and durable horizon durable.
func (c *rawClient) want(typ string, seq uint64, verdict string, durable uint64) {
	c.t.Helper()
	f := c.read()
	if f.Type != typ || (typ == monitorapi.FrameAck &&
		(f.Seq != seq || f.Verdict != verdict || f.Durable != durable)) {
		c.t.Fatalf("got %+v, want %s seq=%d verdict=%s durable=%d", f, typ, seq, verdict, durable)
	}
}

// enq is a complete enqueue of v by proc 1, operation id v.
func enq(v int64) []history.WireEvent {
	return []history.WireEvent{
		{Kind: "inv", Proc: 1, ID: uint64(v), Op: "Enq", Arg: v},
		{Kind: "ret", Proc: 1, ID: uint64(v), Op: "Enq", Arg: v, Res: "ok"},
	}
}

// holdWrites returns a store whose checkpoint writes block, once hold is
// set, for every key whose file name contains match, until release. held
// is signalled when a write starts blocking.
func holdWrites(t *testing.T, match string) (store *ckpt.Store, hold *atomic.Bool, held chan struct{}, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	hold = new(atomic.Bool)
	held = make(chan struct{}, 16)
	ffs := ckpt.NewFaultFS(ckpt.NewMemFS()).Arm(func(op ckpt.Op, path string) error {
		if op == ckpt.OpWrite && hold.Load() && strings.Contains(path, match) {
			select {
			case held <- struct{}{}:
			default:
			}
			<-gate
		}
		return nil
	})
	store, err := ckpt.NewStore(ffs, "state")
	if err != nil {
		t.Fatal(err)
	}
	return store, hold, held, func() { once.Do(func() { close(gate) }) }
}

// waitHeld waits until a held write or job has started.
func waitHeld(t *testing.T, held chan struct{}) {
	t.Helper()
	select {
	case <-held:
	case <-time.After(readDeadline):
		t.Fatal("the held operation was never reached")
	}
}

// TestObjectsDoNotWait: a checkpoint stuck in the store holds up no ack and
// no other object. Object A's periodic checkpoint blocks in its first
// write, yet A's own ack arrives, durable 0 — nothing is on disk yet.
// Object B then opens and streams batches that are applied and acked, each
// durable short of its own seq, at one worker as at two: a save holds a
// saver, not a worker, and B's checkpoints wait while every saver is busy.
// Once A's write is let go, a bye and a reopen of A find it durable through
// its batch.
func TestObjectsDoNotWait(t *testing.T) {
	for _, workers := range []int{2, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			store, hold, held, release := holdWrites(t, "held")
			hold.Store(true)
			srv := startServer(t, monitorserver.Options{Workers: workers, CheckpointEvery: 1, Store: store})
			t.Cleanup(release) // before srv.Close

			a := dialRaw(t, srv, "held")
			a.want(monitorapi.FrameHello, 0, "", 0)
			a.batch(1, enq(1)...)
			a.want(monitorapi.FrameAck, 1, "Yes", 0)
			waitHeld(t, held)

			b := dialRaw(t, srv, "free")
			b.want(monitorapi.FrameHello, 0, "", 0)
			for seq := uint64(1); seq <= 3; seq++ {
				b.batch(seq, enq(int64(seq))...)
				if f := b.read(); f.Type != monitorapi.FrameAck || f.Seq != seq || f.Verdict != "Yes" || f.Durable >= seq {
					t.Fatalf("got %+v, want ack seq=%d verdict=Yes durable<%d", f, seq, seq)
				}
			}

			release()
			a.send(monitorapi.ClientFrame{Type: monitorapi.FrameBye})
			a.want(monitorapi.FrameStats, 0, "", 0)
			again := dialRaw(t, srv, "held")
			if f := again.read(); f.Type != monitorapi.FrameHello || f.Acked != 1 || f.Durable != 1 {
				t.Fatalf("reopen after the held save: got %+v, want hello acked=1 durable=1", f)
			}
		})
	}
}

// TestReplayAckWhileJobOut: a resent batch that is already applied is acked
// from the object's cached verdict while the object's next job is out on a
// worker — the dispatcher never reads a monitor a worker holds (run it
// under -race). Batch 1 is legal; batch 2 refutes the stream and its job is
// held before its Append, so the replay ack of batch 1 must say Yes, the
// verdict committed with batch 1, and only batch 2's own ack says No.
func TestReplayAckWhileJobOut(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	var hold atomic.Bool
	held := make(chan struct{}, 1)
	monitorserver.SetJobHook(t, func(object string) {
		if object == "obj" && hold.Load() {
			select {
			case held <- struct{}{}:
			default:
			}
			<-gate
		}
	})
	srv := startServer(t, monitorserver.Options{Workers: 2})
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // before srv.Close

	c := dialRaw(t, srv, "obj")
	c.want(monitorapi.FrameHello, 0, "", 0)
	c.batch(1, enq(1)...)
	c.want(monitorapi.FrameAck, 1, "Yes", 0)

	hold.Store(true)
	c.batch(2,
		history.WireEvent{Kind: "inv", Proc: 2, ID: 2, Op: "Deq"},
		history.WireEvent{Kind: "ret", Proc: 2, ID: 2, Op: "Deq", Res: "7"})
	waitHeld(t, held)
	c.batch(1, enq(1)...)
	c.want(monitorapi.FrameAck, 1, "Yes", 0)

	release()
	c.want(monitorapi.FrameAck, 2, "No", 0)
}

// diskHorizon returns the applied seq of key's newest intact generation in
// store, 0 when it has none. The store only ever gains newer generations, so
// a read that races a save's pruning is retried.
func diskHorizon(t *testing.T, store *ckpt.Store, key string) uint64 {
	t.Helper()
	var err error
	for range 3 {
		var payload []byte
		if payload, _, err = store.Restore(key); err != nil {
			continue
		}
		cp, derr := monitorapi.DecodeCheckpoint(payload)
		if derr != nil {
			t.Fatalf("%q: %v", key, derr)
		}
		return cp.AppliedSeq
	}
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return 0
	}
	t.Fatalf("%q: %v", key, err)
	return 0
}

// TestAckNeverAheadOfDisk: whenever a client reads an ack, the store already
// holds a generation through the ack's durable seq — acks go out before
// their job's checkpoint is written, never before the horizon they report.
// Two objects stream at once through two workers, at two checkpoint
// cadences, on clean and mutated streams; each keeps the server's full
// credit window in flight, and every fsync takes a millisecond. After a bye the object is durable through its
// last batch, and the streamed verdict is the in-process monitor's.
func TestAckNeverAheadOfDisk(t *testing.T) {
	m, _ := spec.ByName("queue")
	const window = 8
	type stream struct {
		c           *rawClient
		key         string
		bs          [][]history.WireEvent
		want        check.Verdict
		sent, acked int
		verdict     string
		durable     uint64
	}
	for _, every := range []int{1, 8} {
		for _, mutate := range []bool{false, true} {
			name := fmt.Sprintf("every=%d/clean", every)
			if mutate {
				name = fmt.Sprintf("every=%d/mutated", every)
			}
			t.Run(name, func(t *testing.T) {
				// Every fsync dwells as a disk's would, so acks do go out
				// while their checkpoints are still being written.
				ffs := ckpt.NewFaultFS(ckpt.NewMemFS()).Arm(func(op ckpt.Op, _ string) error {
					if op == ckpt.OpSync {
						time.Sleep(time.Millisecond)
					}
					return nil
				})
				store, err := ckpt.NewStore(ffs, "state")
				if err != nil {
					t.Fatal(err)
				}
				srv := startServer(t, monitorserver.Options{Workers: 2, CheckpointEvery: every, Store: store, Window: window})
				var ss []*stream
				for i := range 2 {
					h := genQuiescing(m, int64(50+i), 3, 160)
					if mutate {
						h = trace.Mutate(h, int64(7+i))
					}
					s := &stream{key: fmt.Sprintf("t\x00o%d", i)}
					ref := check.NewIncremental(m)
					s.want = check.Yes
					for _, b := range batches(h, 8) {
						s.want = ref.Append(b)
						w, err := history.ToWire(b)
						if err != nil {
							t.Fatal(err)
						}
						s.bs = append(s.bs, w)
					}
					s.c = dialRaw(t, srv, fmt.Sprintf("o%d", i))
					s.c.want(monitorapi.FrameHello, 0, "", 0)
					ss = append(ss, s)
				}
				for busy := true; busy; {
					busy = false
					for _, s := range ss {
						for s.sent < len(s.bs) && s.sent-s.acked < window {
							s.sent++
							s.c.batch(uint64(s.sent), s.bs[s.sent-1]...)
						}
					}
					for _, s := range ss {
						if s.acked == s.sent {
							continue
						}
						busy = true
						f := s.c.read()
						if f.Type != monitorapi.FrameAck || f.Seq != uint64(s.acked+1) {
							t.Fatalf("%q: got %+v, want ack %d", s.key, f, s.acked+1)
						}
						if disk := diskHorizon(t, store, s.key); disk < f.Durable {
							t.Fatalf("%q: ack %d says durable %d, store holds %d", s.key, f.Seq, f.Durable, disk)
						}
						if f.Durable < s.durable {
							t.Fatalf("%q: durable went back from %d to %d", s.key, s.durable, f.Durable)
						}
						s.acked, s.verdict, s.durable = s.acked+1, f.Verdict, f.Durable
					}
				}
				for _, s := range ss {
					if s.verdict != s.want.String() {
						t.Fatalf("%q: streamed verdict %s, reference %v", s.key, s.verdict, s.want)
					}
					s.c.send(monitorapi.ClientFrame{Type: monitorapi.FrameBye})
					s.c.want(monitorapi.FrameStats, 0, "", 0)
					if disk := diskHorizon(t, store, s.key); disk != uint64(len(s.bs)) {
						t.Fatalf("%q: durable through %d after bye, want %d", s.key, disk, len(s.bs))
					}
				}
			})
		}
	}
}

// TestFailedSaveRetries: the fsync of one periodic checkpoint fails. Acks
// keep flowing, no ack ever claims the failed save's horizon, and a later
// due checkpoint writes and advances durable past it. Throughout, the store
// never sees two writes of one key at once, nor more writes in flight than
// there are workers: three objects stream through two workers, and every
// write dwells in the store long enough for overlaps to show.
func TestFailedSaveRetries(t *testing.T) {
	const workers, objects = 2, 3
	mem := ckpt.NewMemFS()
	var (
		mu       sync.Mutex
		inflight = map[string]int{} // writes in flight, by temp file
		total    int
		overlap  string
		synced   = map[string]map[uint64]bool{} // applied seqs synced, by temp file
		failed   uint64                         // the failed save's applied seq
	)
	appliedSeq := func(path string) uint64 {
		raw, err := mem.ReadFile(path)
		if err != nil {
			panic(err)
		}
		cp, err := monitorapi.DecodeCheckpoint(raw[bytes.IndexByte(raw, '\n')+1:])
		if err != nil {
			panic(err)
		}
		return cp.AppliedSeq
	}
	ffs := ckpt.NewFaultFS(mem).Arm(func(op ckpt.Op, path string) error {
		switch op {
		case ckpt.OpWrite:
			mu.Lock()
			inflight[path]++
			total++
			if inflight[path] > 1 || total > workers {
				overlap = fmt.Sprintf("%d writes of %s, %d in all", inflight[path], path, total)
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inflight[path]--
			total--
			mu.Unlock()
		case ckpt.OpSync:
			seq := appliedSeq(path)
			mu.Lock()
			defer mu.Unlock()
			if failed == 0 && strings.Contains(path, "o0") {
				failed = seq
				return ckpt.ErrNoSpace
			}
			if synced[path] == nil {
				synced[path] = map[uint64]bool{}
			}
			synced[path][seq] = true
		}
		return nil
	})
	store, err := ckpt.NewStore(ffs, "state")
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, monitorserver.Options{Workers: workers, CheckpointEvery: 1, Store: store})

	var cs []*rawClient
	for i := range objects {
		c := dialRaw(t, srv, fmt.Sprintf("o%d", i))
		c.want(monitorapi.FrameHello, 0, "", 0)
		cs = append(cs, c)
	}
	// Stream in lockstep until object o0's durable horizon has passed the
	// failed save, plus a few rounds more.
	var past uint64
	const rounds = 400
	seq := uint64(0)
	for seq < rounds && (past == 0 || seq < past+4) {
		seq++
		for _, c := range cs {
			c.batch(seq, enq(int64(seq))...)
		}
		for i, c := range cs {
			f := c.read()
			if f.Type != monitorapi.FrameAck || f.Seq != seq || f.Verdict != "Yes" {
				t.Fatalf("o%d: got %+v, want ack %d Yes", i, f, seq)
			}
			if f.Durable == 0 {
				continue
			}
			mu.Lock()
			tmp := fmt.Sprintf("state/t%%00o%d.tmp", i)
			ok, fail := synced[tmp][f.Durable], failed
			mu.Unlock()
			if !ok {
				t.Fatalf("o%d: ack %d says durable %d, which no successful save wrote", i, seq, f.Durable)
			}
			if i == 0 && f.Durable > fail && past == 0 {
				past = seq
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if failed == 0 {
		t.Fatal("no save of o0 reached its fsync")
	}
	if past == 0 {
		t.Fatalf("o0's durable horizon never passed the failed save of seq %d in %d batches", failed, rounds)
	}
	if synced["state/t%00o0.tmp"][failed] {
		t.Fatalf("the failed save of seq %d also synced", failed)
	}
	if overlap != "" {
		t.Fatalf("store saw %s", overlap)
	}
}
