package monitorserver_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"net"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/monitorclient"
	"repro/internal/monitorserver"
	"repro/internal/spec"
	"repro/internal/trace"
)

// durableHarness is a restartable server over one durable store: the
// ckpt.Store (on a fault-injectable in-memory filesystem) survives across
// server incarnations while the listener is torn down and reopened on the
// same address, so a reconnecting client finds the "rebooted" server where it
// left it — the loopback model of kill -TERM linmond && linmond -state-dir.
type durableHarness struct {
	t    *testing.T
	mem  *ckpt.MemFS
	ffs  *ckpt.FaultFS
	opts monitorserver.Options
	addr string

	mu  sync.Mutex
	srv *monitorserver.Server
}

func newDurableHarness(t *testing.T, checkpointEvery int, mods ...func(*monitorserver.Options)) *durableHarness {
	t.Helper()
	mem := ckpt.NewMemFS()
	ffs := ckpt.NewFaultFS(mem)
	store, err := ckpt.NewStore(ffs, "state")
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	h := &durableHarness{t: t, mem: mem, ffs: ffs, opts: monitorserver.Options{
		Workers: 2, Store: store, CheckpointEvery: checkpointEvery, Logf: t.Logf,
	}}
	for _, mod := range mods {
		mod(&h.opts)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.srv = monitorserver.Serve(ln, h.opts)
	h.addr = h.srv.Addr().String()
	t.Cleanup(func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.srv.Close()
	})
	return h
}

// restart gracefully drains the running incarnation (final checkpoints, as
// SIGTERM would) and brings a fresh one up on the same address and store.
func (h *durableHarness) restart() {
	h.t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.srv.Close()
	var ln net.Listener
	var err error
	for i := 0; i < 200; i++ {
		if ln, err = net.Listen("tcp", h.addr); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		h.t.Fatalf("relisten %s: %v", h.addr, err)
	}
	h.srv = monitorserver.Serve(ln, h.opts)
}

// corruptCheckpoints flips a payload byte in checkpoint files under the
// harness's state dir: the newest generation only, or every generation.
func corruptCheckpoints(t *testing.T, mem *ckpt.MemFS, newestOnly bool) {
	t.Helper()
	names, err := mem.ReadDir("state")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	gen := func(name string) int {
		rest := strings.TrimSuffix(name, ".ckpt")
		n, err := strconv.Atoi(rest[strings.LastIndexByte(rest, '.')+1:])
		if err != nil {
			t.Fatalf("checkpoint name %q: %v", name, err)
		}
		return n
	}
	var targets []string
	for _, n := range names {
		if !strings.HasSuffix(n, ".ckpt") {
			continue
		}
		if newestOnly {
			if len(targets) == 0 || gen(n) > gen(targets[0]) {
				targets = []string{n}
			}
			continue
		}
		targets = append(targets, n)
	}
	if len(targets) == 0 {
		t.Fatal("no checkpoint files to corrupt")
	}
	for _, n := range targets {
		path := "state/" + n
		raw, err := mem.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		raw[len(raw)-1] ^= 0x40
		f, err := mem.Create(path)
		if err != nil {
			t.Fatalf("rewrite %s: %v", path, err)
		}
		if _, err := f.Write(raw); err != nil {
			t.Fatalf("rewrite %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("rewrite %s: %v", path, err)
		}
	}
}

// TestDurableRestartSoak is the crash-restart acceptance test: one session
// streams a long history through a server that is force-restarted three
// times mid-stream — once with the drain checkpoint failing under injected
// ENOSPC, so recovery falls back to the last periodic checkpoint and the
// client's replay buffer covers the regression. The streamed verdict must
// match an uninterrupted in-process monitor and every event must be applied
// exactly once, on a clean stream and on a mutated one.
func TestDurableRestartSoak(t *testing.T) {
	for _, mutate := range []bool{false, true} {
		name := "clean"
		if mutate {
			name = "mutated"
		}
		t.Run(name, func(t *testing.T) {
			m, _ := spec.ByName("queue")
			h := genQuiescing(m, 33, 3, 600)
			if mutate {
				h = trace.Mutate(h, 17)
			}
			cfg := check.Config{
				Retain:    true,
				Retention: check.RetentionPolicy{KeepEvents: 128, GCBatch: 4},
			}
			bs := batches(h, 30)

			ref := check.NewIncremental(m, check.WithConfig(cfg))
			want := check.Yes
			for _, b := range bs {
				want = ref.Append(b)
			}

			dh := newDurableHarness(t, 3)
			sess, err := monitorclient.Dial(dh.addr, "t", "obj", "queue",
				monitorclient.WithConfig(cfg),
				monitorclient.WithReconnect(40, 25*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			restartAt := map[int]bool{
				len(bs) / 4:     false,
				len(bs) / 2:     true, // fail the drain checkpoint: durable lags acked
				3 * len(bs) / 4: false,
			}
			for i, b := range bs {
				if crashCkpt, ok := restartAt[i]; ok {
					if crashCkpt {
						dh.ffs.FailN(ckpt.OpSync, 1, ckpt.ErrNoSpace)
					}
					dh.restart()
					dh.ffs.Arm(nil)
				}
				if err := sess.Send(b); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			got, err := sess.Close()
			if err != nil {
				t.Fatalf("close: %v", err)
			}
			if got != want {
				t.Fatalf("restarted verdict %v, uninterrupted reference %v", got, want)
			}
			if st := sess.Stats(); st == nil || st.Check.Events != len(h) {
				t.Fatalf("exactly-once violated: server applied %v events, stream has %d",
					sess.Stats(), len(h))
			}
		})
	}
}

// TestDurableClientProcessRestart: both processes die — server restarts from
// its checkpoint, and a *fresh* session (client process restart, empty replay
// buffer) attaches, learns the applied prefix from hello.Acked, and streams
// the continuation. Afterwards, opens that disagree with the durable
// model/config are rejected exactly like live mismatches, and the durable
// state survives the rejected attempts.
func TestDurableClientProcessRestart(t *testing.T) {
	m, _ := spec.ByName("counter")
	h := genQuiescing(m, 9, 3, 400)
	bs := batches(h, 50)
	half := len(bs) / 2

	ref := check.NewIncremental(m)
	want := check.Yes
	for _, b := range bs {
		want = ref.Append(b)
	}

	dh := newDurableHarness(t, 4)
	first, err := monitorclient.Dial(dh.addr, "t", "obj", "counter")
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
	dh.restart()

	second, err := monitorclient.Dial(dh.addr, "t", "obj", "counter")
	if err != nil {
		t.Fatalf("reopen after restart: %v", err)
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
		t.Fatalf("restart lost or duplicated events: %v, want %d", second.Stats(), len(h))
	}

	// Restart once more so the next opens hit the restore path, not a live
	// object: a different config or model than the checkpoint's pinning is a
	// mismatch abort.
	dh.restart()
	if _, err := monitorclient.Dial(dh.addr, "t", "obj", "counter",
		monitorclient.WithConfig(check.Config{Parallelism: 2})); err == nil ||
		!strings.Contains(err.Error(), "different model or config") {
		t.Fatalf("durable config mismatch: got %v", err)
	}
	if _, err := monitorclient.Dial(dh.addr, "t", "obj", "queue"); err == nil ||
		!strings.Contains(err.Error(), "different model or config") {
		t.Fatalf("durable model mismatch: got %v", err)
	}
	third, err := monitorclient.Dial(dh.addr, "t", "obj", "counter")
	if err != nil {
		t.Fatalf("good open after rejected mismatches: %v", err)
	}
	if _, err := third.Close(); err != nil {
		t.Fatal(err)
	}
	if st := third.Stats(); st == nil || st.Check.Events != len(h) {
		t.Fatalf("durable state damaged by mismatch attempts: %v, want %d", third.Stats(), len(h))
	}
}

// TestDurableLostTailIsLoud: when recovery resumes *behind* what the session
// can replay, the session must fail loudly instead of monitoring a history
// with a hole. Two ways to get there: the newest checkpoint generation is
// corrupt (restore falls back a generation, past the trimmed replay buffer)
// and a storeless server restarting from nothing.
func TestDurableLostTailIsLoud(t *testing.T) {
	t.Run("corrupt newest generation", func(t *testing.T) {
		m, _ := spec.ByName("queue")
		h := genQuiescing(m, 11, 3, 300)
		bs := batches(h, 30)

		// A checkpoint every batch makes every ack durable through its own
		// batch, whatever rounds the batches share. With a coarser cadence
		// the last ack can lag the applied tail, and the drain checkpoint of
		// the restart then writes a newer intact generation than the one
		// this test corrupts.
		dh := newDurableHarness(t, 1)
		sess, err := monitorclient.Dial(dh.addr, "t", "obj", "queue",
			monitorclient.WithReconnect(40, 25*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs[:len(bs)-1] {
			if err := sess.Send(b); err != nil {
				t.Fatal(err)
			}
		}
		// Quiesce so the replay buffer is trimmed to the newest durable
		// generation, then lose that generation.
		if _, err := sess.Drain(); err != nil {
			t.Fatal(err)
		}
		corruptCheckpoints(t, dh.mem, true)
		dh.restart()
		err = sess.Send(bs[len(bs)-1])
		if err == nil {
			_, err = sess.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "server lost batches") {
			t.Fatalf("resume past a lost checkpoint tail: got %v, want loud loss error", err)
		}
	})

	t.Run("storeless restart", func(t *testing.T) {
		m, _ := spec.ByName("queue")
		h := genQuiescing(m, 12, 3, 200)
		bs := batches(h, 40)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := monitorserver.Serve(ln, monitorserver.Options{Logf: t.Logf})
		addr := srv.Addr().String()
		sess, err := monitorclient.Dial(addr, "t", "obj", "queue",
			monitorclient.WithReconnect(40, 25*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs[:len(bs)-1] {
			if err := sess.Send(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sess.Drain(); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		for i := 0; i < 200; i++ {
			if ln, err = net.Listen("tcp", addr); err == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("relisten: %v", err)
		}
		srv = monitorserver.Serve(ln, monitorserver.Options{Logf: t.Logf})
		defer srv.Close()
		err = sess.Send(bs[len(bs)-1])
		if err == nil {
			_, err = sess.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "server lost batches") {
			t.Fatalf("resume against a restarted storeless server: got %v, want loud loss error", err)
		}
	})
}

// TestDurableAllCorruptStartsFresh: with every generation corrupt the server
// detects it (checksum), logs, and starts the object fresh rather than
// resuming wrong — and the fresh instance can checkpoint again (its
// generation counter is anchored above the corrupt files, so the CAS rule
// does not wedge).
func TestDurableAllCorruptStartsFresh(t *testing.T) {
	m, _ := spec.ByName("queue")
	h := genQuiescing(m, 14, 3, 300)
	bs := batches(h, 30)

	ref := check.NewIncremental(m)
	want := check.Yes
	for _, b := range bs {
		want = ref.Append(b)
	}

	dh := newDurableHarness(t, 4)
	sess, err := monitorclient.Dial(dh.addr, "t", "obj", "queue")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		if err := sess.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	corruptCheckpoints(t, dh.mem, false)
	dh.restart()

	// The object starts fresh: a new session streams the history from the
	// top and gets the uninterrupted verdict.
	again, err := monitorclient.Dial(dh.addr, "t", "obj", "queue")
	if err != nil {
		t.Fatalf("open after all-corrupt store: %v", err)
	}
	for _, b := range bs {
		if err := again.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := again.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fresh-start verdict %v, want %v", got, want)
	}
	if st := again.Stats(); st == nil || st.Check.Events != len(h) {
		t.Fatalf("fresh start did not apply the full stream: %v, want %d", again.Stats(), len(h))
	}
	// Drain the server so its final checkpoint lands, then prove the store
	// took it: a fresh incarnation must restore intact state again.
	dh.restart()
	payload, gen, err := dh.opts.Store.Restore("t\x00obj")
	if err != nil || len(payload) == 0 {
		t.Fatalf("store did not recover after all-corrupt fresh start: gen %d, %v", gen, err)
	}
}
