package monitorserver_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/history"
	"repro/internal/monitorapi"
	"repro/internal/monitorclient"
	"repro/internal/monitorserver"
	"repro/internal/spec"
	"repro/internal/trace"
)

func startServer(t *testing.T, opts monitorserver.Options) *monitorserver.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	srv := monitorserver.Serve(ln, opts)
	t.Cleanup(srv.Close)
	return srv
}

// genQuiescing returns a linearizable-by-construction history of nops
// operations in which every operation returns: mostly-sequential traffic
// with occasional concurrent pairs, quiescing between steps. Unlike
// trace.RandomLinearizable it never crashes a process, so no operation
// stays pending forever — which is what lets quiescent-cut retention keep
// the monitor's window bounded on an endless stream. Overlap is kept narrow
// (pairs, not barriers) so the frontier's linearization ambiguity stays
// small instead of compounding over thousands of concurrent value orderings.
func genQuiescing(m spec.Model, seed int64, procs, nops int) history.History {
	rng := rand.New(rand.NewSource(seed))
	var uniq trace.UniqSource
	gen := trace.NewOpGen(m.Name(), seed+1, &uniq)
	oracle := spec.NewOracle(m)
	apply := func(op spec.Operation) spec.Response {
		r, ok := oracle.Apply(op)
		if !ok {
			panic("oracle rejected a generated operation")
		}
		return r
	}
	var h history.History
	for started := 0; started < nops; {
		if procs >= 2 && nops-started >= 2 && rng.Intn(4) == 0 {
			// One concurrent pair: both overlap fully, linearized in a
			// random order, both return before the next step. Same-method
			// pairs (Enq‖Enq, Push‖Push, Write‖Write) are emitted
			// sequentially instead: their order is unobservable until much
			// later (if ever), and that unresolved ambiguity accumulates in
			// the frontier until it overflows MaxFrontierStates and pins
			// retention — the pathology, not the workload, of this test.
			a, b := gen.Next(), gen.Next()
			if a.Method == b.Method {
				for _, op := range []spec.Operation{a, b} {
					res := apply(op)
					p := rng.Intn(procs)
					h = append(h,
						history.Event{Kind: history.Invoke, Proc: p, ID: op.Uniq, Op: op},
						history.Event{Kind: history.Return, Proc: p, ID: op.Uniq, Op: op, Res: res})
				}
				started += 2
				continue
			}
			h = append(h,
				history.Event{Kind: history.Invoke, Proc: 0, ID: a.Uniq, Op: a},
				history.Event{Kind: history.Invoke, Proc: 1, ID: b.Uniq, Op: b})
			ra, rb := spec.Response{}, spec.Response{}
			if rng.Intn(2) == 0 {
				ra, rb = apply(a), apply(b)
			} else {
				rb, ra = apply(b), apply(a)
			}
			if rng.Intn(2) == 0 {
				h = append(h,
					history.Event{Kind: history.Return, Proc: 0, ID: a.Uniq, Op: a, Res: ra},
					history.Event{Kind: history.Return, Proc: 1, ID: b.Uniq, Op: b, Res: rb})
			} else {
				h = append(h,
					history.Event{Kind: history.Return, Proc: 1, ID: b.Uniq, Op: b, Res: rb},
					history.Event{Kind: history.Return, Proc: 0, ID: a.Uniq, Op: a, Res: ra})
			}
			started += 2
			continue
		}
		op := gen.Next()
		res := apply(op)
		p := rng.Intn(procs)
		h = append(h,
			history.Event{Kind: history.Invoke, Proc: p, ID: op.Uniq, Op: op},
			history.Event{Kind: history.Return, Proc: p, ID: op.Uniq, Op: op, Res: res})
		started++
	}
	return h
}

// batches splits h into contiguous slices of at most n events.
func batches(h history.History, n int) []history.History {
	var out []history.History
	for len(h) > 0 {
		k := min(n, len(h))
		out = append(out, h[:k])
		h = h[k:]
	}
	return out
}

// TestLoopbackSoak is the end-to-end acceptance test: 4 clients stream
// >=10k operations total to one server, each over its own object, under a
// bounded retention config. Streamed verdicts must match an in-process
// monitor run on the same batches, and the gauges must show the retained
// window staying bounded.
func TestLoopbackSoak(t *testing.T) {
	srv := startServer(t, monitorserver.Options{Workers: 4, GaugeEvery: 4})

	cfg := check.Config{
		Retain:    true,
		Retention: check.RetentionPolicy{KeepEvents: 128, GCBatch: 4},
	}
	models := []string{"queue", "stack", "set", "counter"}
	const (
		procs     = 4
		opsEach   = 2600 // 4 clients x 2600 >= 10k operations
		batchSize = 100  // events per batch
	)

	var wg sync.WaitGroup
	errs := make(chan error, len(models))
	for ci, model := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, _ := spec.ByName(model)
			h := genQuiescing(m, int64(1000+ci), procs, opsEach)

			// In-process reference: the same monitor the server's dispatcher
			// drives, fed the same batches.
			ref := check.NewIncremental(m, check.WithConfig(cfg))
			want := check.Yes
			for _, b := range batches(h, batchSize) {
				want = ref.Append(b)
			}

			var gauges []monitorapi.Gauge
			sess, err := monitorclient.Dial(srv.Addr().String(), "soak", fmt.Sprintf("obj-%d", ci), model,
				monitorclient.WithConfig(cfg),
				monitorclient.WithGauges(func(g monitorapi.Gauge) { gauges = append(gauges, g) }))
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", ci, err)
				return
			}
			for _, b := range batches(h, batchSize) {
				if err := sess.Send(b); err != nil {
					errs <- fmt.Errorf("client %d: send: %w", ci, err)
					return
				}
			}
			got, err := sess.Close()
			if err != nil {
				errs <- fmt.Errorf("client %d: close: %w", ci, err)
				return
			}
			if got != want {
				errs <- fmt.Errorf("client %d (%s): streamed verdict %v, in-process %v", ci, model, got, want)
				return
			}
			if got != check.Yes {
				errs <- fmt.Errorf("client %d (%s): legal trace judged %v", ci, model, got)
				return
			}
			if sess.Stats() == nil || sess.Stats().Check.Events != len(h) {
				errs <- fmt.Errorf("client %d: final stats missing or wrong event count", ci)
				return
			}
			// Backpressure/bounded memory: the retained window reported by
			// the gauges must stay far below the full stream length.
			if len(gauges) == 0 {
				errs <- fmt.Errorf("client %d: no gauge frames received", ci)
				return
			}
			for _, g := range gauges {
				if g.RetainedEvents > 2048 {
					errs <- fmt.Errorf("client %d: retained window unbounded: %d events", ci, g.RetainedEvents)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLoopbackViolation streams a mutated (likely non-linearizable) trace
// and checks the streamed verdict still matches the in-process monitor,
// whatever it is.
func TestLoopbackViolation(t *testing.T) {
	srv := startServer(t, monitorserver.Options{Workers: 2})
	m, _ := spec.ByName("queue")
	h := trace.Mutate(genQuiescing(m, 7, 3, 400), 13)

	ref := check.NewIncremental(m)
	want := check.Yes
	for _, b := range batches(h, 64) {
		want = ref.Append(b)
	}

	sess, err := monitorclient.Dial(srv.Addr().String(), "t", "violating", "queue")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches(h, 64) {
		if err := sess.Send(b); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	got, err := sess.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if got != want {
		t.Fatalf("streamed verdict %v, in-process %v", got, want)
	}
}

// TestSessionConflict: one object, one active session at a time.
func TestSessionConflict(t *testing.T) {
	srv := startServer(t, monitorserver.Options{})
	a, err := monitorclient.Dial(srv.Addr().String(), "t", "obj", "queue")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := monitorclient.Dial(srv.Addr().String(), "t", "obj", "queue"); err == nil ||
		!strings.Contains(err.Error(), "active session") {
		t.Fatalf("want active-session rejection, got %v", err)
	}
	// A different tenant's object of the same name is distinct.
	b, err := monitorclient.Dial(srv.Addr().String(), "t2", "obj", "queue")
	if err != nil {
		t.Fatalf("distinct tenant rejected: %v", err)
	}
	b.Close()
}

// TestSessionSupersede: an open presenting the attached session's hello
// token replaces that session — the reconnect of a client whose old
// connection the server has not yet seen die — while an open with any other
// token is still a conflict, and the replaced token is spent.
func TestSessionSupersede(t *testing.T) {
	srv := startServer(t, monitorserver.Options{})
	type rawConn struct {
		nc  net.Conn
		dec *json.Decoder
	}
	open := func(token uint64) rawConn {
		t.Helper()
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		if err := nc.SetDeadline(time.Now().Add(readDeadline)); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(nc).Encode(monitorapi.ClientFrame{Type: monitorapi.FrameOpen,
			Open: &monitorapi.Open{Version: 1, Tenant: "t", Object: "obj", Model: "queue", Session: token}}); err != nil {
			t.Fatal(err)
		}
		return rawConn{nc, json.NewDecoder(nc)}
	}
	read := func(c rawConn) monitorapi.ServerFrame {
		t.Helper()
		var f monitorapi.ServerFrame
		if err := c.dec.Decode(&f); err != nil {
			t.Fatalf("reading frame: %v", err)
		}
		return f
	}

	a := open(0)
	hello := read(a)
	if hello.Type != monitorapi.FrameHello || hello.Session == 0 {
		t.Fatalf("first open: got %+v, want a hello with a session token", hello)
	}
	if f := read(open(hello.Session + 2)); f.Type != monitorapi.FrameError ||
		!strings.Contains(f.Err, "active session") {
		t.Fatalf("open with a wrong token: got %+v, want active-session rejection", f)
	}
	b := open(hello.Session)
	if f := read(b); f.Type != monitorapi.FrameHello || f.Session == 0 || f.Session == hello.Session {
		t.Fatalf("reconnect with the session's token: got %+v, want a hello with a fresh token", f)
	}
	if f := read(a); f.Type != monitorapi.FrameError || !strings.Contains(f.Err, "superseded") {
		t.Fatalf("replaced connection: got %+v, want a superseded error", f)
	}
	if f := read(open(hello.Session)); f.Type != monitorapi.FrameError ||
		!strings.Contains(f.Err, "active session") {
		t.Fatalf("open with the spent token: got %+v, want active-session rejection", f)
	}
}

// TestReopenResume: a fresh client attaching to an object with prior state
// continues the stream where the last session left off.
func TestReopenResume(t *testing.T) {
	srv := startServer(t, monitorserver.Options{})
	m, _ := spec.ByName("queue")
	h := genQuiescing(m, 21, 3, 300)
	bs := batches(h, 50)
	half := len(bs) / 2

	ref := check.NewIncremental(m)
	want := check.Yes
	for _, b := range bs {
		want = ref.Append(b)
	}

	addr := srv.Addr().String()
	first, err := monitorclient.Dial(addr, "t", "obj", "queue")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs[:half] {
		if err := first.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := monitorclient.Dial(addr, "t", "obj", "queue")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for _, b := range bs[half:] {
		if err := second.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := second.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed verdict %v, want %v", got, want)
	}
	if st := second.Stats(); st == nil || st.Check.Events != len(h) {
		t.Fatalf("resumed object did not accumulate the full stream")
	}
	// Reopening with a different config is a mismatch.
	if _, err := monitorclient.Dial(addr, "t", "obj", "queue",
		monitorclient.WithConfig(check.Config{Parallelism: 2})); err == nil ||
		!strings.Contains(err.Error(), "different model or config") {
		t.Fatalf("want config-mismatch rejection, got %v", err)
	}
}

// readDeadline bounds every raw-connection read in these tests: a frame the
// server never sends fails the test instead of hanging it.
const readDeadline = 30 * time.Second

// TestOverload: a raw client that ignores the credit window gets an overload
// frame and a closed connection — the server's answer to a protocol-breaking
// flooder (well-behaved clients block in monitorclient instead). The overrun
// is provoked deterministically rather than by out-running the server: the
// object opens on a store whose reads block until the client has seen the
// overload frame, so the dispatcher — stuck restoring in the open — cannot
// ack batch 1 before the reader counts batch 2.
func TestOverload(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	ffs := ckpt.NewFaultFS(ckpt.NewMemFS()).Arm(func(op ckpt.Op, _ string) error {
		if op == ckpt.OpReadDir || op == ckpt.OpReadFile {
			<-gate
		}
		return nil
	})
	store, err := ckpt.NewStore(ffs, "state")
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, monitorserver.Options{Window: 1, Store: store})
	t.Cleanup(func() { release.Do(func() { close(gate) }) }) // before srv.Close
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(readDeadline)); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(nc)
	if err := enc.Encode(monitorapi.ClientFrame{Type: monitorapi.FrameOpen, Open: &monitorapi.Open{
		Version: 1, Tenant: "t", Object: "flood", Model: "queue",
	}}); err != nil {
		t.Fatal(err)
	}
	ev := []history.WireEvent{{Kind: "inv", Proc: 1, ID: 1, Op: "Enq", Arg: 1}}
	for i := 1; i <= 4; i++ {
		if err := enc.Encode(monitorapi.ClientFrame{Type: monitorapi.FrameEvents,
			Batch: &monitorapi.EventBatch{Seq: uint64(i), Events: ev}}); err != nil {
			break // server closed on us mid-flood: that is the point
		}
	}
	var f monitorapi.ServerFrame
	if err := json.NewDecoder(nc).Decode(&f); err != nil {
		t.Fatalf("flooding client got no frame: %v", err)
	}
	if f.Type != monitorapi.FrameOverload {
		t.Fatalf("flooding client got %+v, want an overload frame", f)
	}
	release.Do(func() { close(gate) })
}

// TestBadFrames: protocol violations get error frames, not hangs.
func TestBadFrames(t *testing.T) {
	srv := startServer(t, monitorserver.Options{})
	for _, tc := range []struct {
		name  string
		frame monitorapi.ClientFrame
		want  string
	}{
		{"events before open", monitorapi.ClientFrame{Type: monitorapi.FrameEvents,
			Batch: &monitorapi.EventBatch{Seq: 1}}, "events before open"},
		{"unknown model", monitorapi.ClientFrame{Type: monitorapi.FrameOpen,
			Open: &monitorapi.Open{Version: 1, Tenant: "t", Object: "o", Model: "btree"}}, "unknown model"},
		{"bad version", monitorapi.ClientFrame{Type: monitorapi.FrameOpen,
			Open: &monitorapi.Open{Version: 99, Tenant: "t", Object: "o", Model: "queue"}}, "version"},
		{"bad config", monitorapi.ClientFrame{Type: monitorapi.FrameOpen,
			Open: &monitorapi.Open{Version: 1, Tenant: "t", Object: "o", Model: "queue",
				Config: check.Config{Retention: check.RetentionPolicy{KeepEvents: 9}}}}, "retention policy set without retain"},
		{"unknown frame", monitorapi.ClientFrame{Type: "subscribe"}, "unknown frame type"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if err := nc.SetDeadline(time.Now().Add(readDeadline)); err != nil {
				t.Fatal(err)
			}
			if err := json.NewEncoder(nc).Encode(tc.frame); err != nil {
				t.Fatal(err)
			}
			var f monitorapi.ServerFrame
			if err := json.NewDecoder(nc).Decode(&f); err != nil {
				t.Fatalf("reading error frame: %v", err)
			}
			if f.Type != monitorapi.FrameError || !strings.Contains(f.Err, tc.want) {
				t.Fatalf("got %+v, want error containing %q", f, tc.want)
			}
		})
	}
}
