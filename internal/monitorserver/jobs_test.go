package monitorserver_test

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/history"
	"repro/internal/monitorapi"
	"repro/internal/monitorserver"
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

// waitHeld waits until a held write has started.
func waitHeld(t *testing.T, held chan struct{}) {
	t.Helper()
	select {
	case <-held:
	case <-time.After(readDeadline):
		t.Fatal("the checkpoint write was never reached")
	}
}

// TestObjectsDoNotWait: an object whose checkpoint is stuck in the store
// holds up no other object. Object A's periodic checkpoint blocks in its
// first write; meanwhile object B opens and, with a second worker, streams
// batches that are applied, checkpointed and acked. Once A's write is let
// go, A's ack arrives durable through its batch. With one worker B's
// batches wait for the worker A holds, but B's open does not.
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
			waitHeld(t, held)

			b := dialRaw(t, srv, "free")
			b.want(monitorapi.FrameHello, 0, "", 0)
			if workers > 1 {
				for seq := uint64(1); seq <= 3; seq++ {
					b.batch(seq, enq(int64(seq))...)
					b.want(monitorapi.FrameAck, seq, "Yes", seq)
				}
			}

			release()
			a.want(monitorapi.FrameAck, 1, "Yes", 1)
		})
	}
}

// TestReplayAckWhileJobOut: a resent batch that is already applied is acked
// from the object's cached verdict while the object's next job is out on a
// worker — the dispatcher never reads a monitor a worker holds (run it
// under -race). Batch 1 is legal; batch 2 refutes the stream and its
// checkpoint is held, so the replay ack of batch 1 must say Yes, the verdict
// committed with batch 1, and only batch 2's own ack says No.
func TestReplayAckWhileJobOut(t *testing.T) {
	store, hold, held, release := holdWrites(t, "obj")
	srv := startServer(t, monitorserver.Options{Workers: 2, CheckpointEvery: 1, Store: store})
	t.Cleanup(release) // before srv.Close

	c := dialRaw(t, srv, "obj")
	c.want(monitorapi.FrameHello, 0, "", 0)
	c.batch(1, enq(1)...)
	c.want(monitorapi.FrameAck, 1, "Yes", 1)

	hold.Store(true)
	c.batch(2,
		history.WireEvent{Kind: "inv", Proc: 2, ID: 2, Op: "Deq"},
		history.WireEvent{Kind: "ret", Proc: 2, ID: 2, Op: "Deq", Res: "7"})
	waitHeld(t, held)
	c.batch(1, enq(1)...)
	c.want(monitorapi.FrameAck, 1, "Yes", 1)

	release()
	c.want(monitorapi.FrameAck, 2, "No", 2)
}
