// Package monitorserver is the linmond monitoring service: it accepts NDJSON
// sessions (internal/monitorapi), multiplexes per-tenant/per-object monitor
// instances through one shared worker pool (check.Shards), and streams
// verdicts, gauges and stats back to clients.
//
// Concurrency model. One dispatcher goroutine owns the Shards value — every
// monitor access, including Shards.Add, happens on it, which is exactly the
// single-driving-goroutine contract Shards documents. Per-connection reader
// goroutines decode frames, convert events (history.FromWire) and queue work
// on a bounded global ingest channel; per-connection writer goroutines drain
// bounded per-session output queues. The dispatcher groups queued batches by
// shard and applies them with one Shards.Append per absorb round — the
// service-level analogue of Decoupled's chunked absorb: cross-object work
// fans out across the pool while each object's stream stays sequential.
//
// Backpressure. Three bounds keep server memory finite under slow or hostile
// clients:
//
//   - a per-session credit window: at most Window unacked batches in flight;
//     overrun is a protocol violation answered with an overload frame and a
//     close (well-behaved clients block in monitorclient instead);
//   - the global ingest channel: when full, readers block, and TCP flow
//     control propagates the stall to senders — a bounded number of batches
//     is buffered server-wide no matter how many clients connect;
//   - bounded per-session write queues: gauges are dropped when the queue is
//     full (they are periodic reports), but a client too slow to read its
//     acks is closed as a slow reader rather than buffered without bound.
//
// Monitor memory is bounded separately by the per-object check.Config
// retention policy, reported through gauge frames.
package monitorserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/history"
	"repro/internal/monitorapi"
	"repro/internal/spec"
)

// Options configures a Server. The zero value is usable; unset fields take
// the defaults documented on each.
type Options struct {
	// Workers bounds the cross-shard fan-out of the shared pool (default 1:
	// shards run inline on the dispatcher).
	Workers int
	// QueueDepth bounds the global ingest channel (default 256 batches).
	QueueDepth int
	// Window is the default per-session credit window — the max unacked
	// batches a client may have in flight (default 8). An Open may request
	// less, never more.
	Window int
	// GaugeEvery streams a gauge frame after every n-th ack on a session
	// (default 16; <0 disables gauges).
	GaugeEvery int
	// Logf receives server diagnostics (default log.Printf; set to a no-op
	// to silence).
	Logf func(format string, args ...any)
	// Store, when set, makes monitor state durable (DESIGN.md §2h): every
	// object is checkpointed into it periodically, on a session's bye and on
	// dispatcher drain (Close / SIGTERM), and an open for an object this instance does not
	// hold in memory first tries to restore it — hello.Acked then resumes at
	// the checkpointed sequence instead of zero. nil (the default) keeps the
	// pre-durability behaviour: state lives and dies with the process.
	Store *ckpt.Store
	// CheckpointEvery is how many applied batches an object accumulates
	// between periodic checkpoints (default 64; meaningful only with Store).
	// Smaller bounds the replay a restart asks of clients; larger amortises
	// the serialisation cost.
	CheckpointEvery int
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.Window <= 0 {
		o.Window = 8
	}
	if o.GaugeEvery == 0 {
		o.GaugeEvery = 16
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 64
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// object is one monitored tenant/object stream: a shard index into the
// dispatcher's Shards plus resume bookkeeping. Dispatcher-owned.
type object struct {
	shard   int
	tenant  string
	name    string
	model   string
	cfg     check.Config
	applied uint64   // highest batch seq applied (committed)
	staged  uint64   // batches staged into the absorb round being assembled
	sess    *session // active session, nil when detached
	token   uint64   // hello.Session of the latest attachment

	// Durability bookkeeping (Options.Store; all dispatcher-owned).
	key       string // store key (tenant + NUL + object)
	gen       uint64 // newest store generation this instance wrote or restored
	durable   uint64 // highest batch seq covered by a durable checkpoint
	sinceCkpt int    // batches applied since the last successful checkpoint
}

// ingestMsg is one unit of dispatcher work, queued by reader goroutines.
type ingestMsg struct {
	sess *session
	op   int // opOpen, opBatch, opBye, opGone
	open *monitorapi.Open
	seq  uint64
	h    history.History
}

const (
	opOpen = iota
	opBatch
	opBye
	opGone
)

// session is one live connection. The reader goroutine owns conn reads; the
// writer goroutine owns conn writes; the dispatcher owns obj and acks.
// unacked is the server-side view of the credit window, moved by the reader
// (inc) and the writer (dec on ack).
type session struct {
	conn    net.Conn
	out     chan monitorapi.ServerFrame
	obj     *object // set by dispatcher on open
	window  int
	unacked atomic.Int32
	acks    int // acks sent; dispatcher-owned, for gauge cadence
	closed  atomic.Bool
}

// enqueue queues a frame for the writer. Gauges are droppable; anything else
// failing to queue marks the session a slow reader and closes it.
func (s *session) enqueue(f monitorapi.ServerFrame, srv *Server) {
	select {
	case s.out <- f:
	default:
		if f.Type == monitorapi.FrameGauge {
			return // periodic report; dropping one is fine
		}
		srv.opts.Logf("linmond: %s: slow reader, closing", s.conn.RemoteAddr())
		s.close()
	}
}

func (s *session) close() {
	if s.closed.CompareAndSwap(false, true) {
		s.conn.Close()
	}
}

// shutdownRead unblocks the session's reader without killing writes in
// flight — an aborting session still owes the client its error frame, which
// the writer flushes before the final close.
func (s *session) shutdownRead() {
	if tc, ok := s.conn.(*net.TCPConn); ok && !s.closed.Load() {
		tc.CloseRead()
		return
	}
	s.close()
}

// Server is a running linmond instance.
type Server struct {
	opts    Options
	ln      net.Listener
	ingest  chan ingestMsg
	done    chan struct{}
	stopped atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// Serve starts a server on ln and returns immediately; the server runs until
// Close. The listener is owned by the server from here on.
func Serve(ln net.Listener, opts Options) *Server {
	opts = opts.withDefaults()
	srv := &Server{
		opts:   opts,
		ln:     ln,
		ingest: make(chan ingestMsg, opts.QueueDepth),
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	go srv.dispatch()
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every live connection and waits for the
// dispatcher to drain. Safe to call more than once.
func (s *Server) Close() {
	if !s.stopped.CompareAndSwap(false, true) {
		<-s.done
		return
	}
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	close(s.ingest)
	<-s.done
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// serveConn is the reader goroutine: decode frames, convert events, queue
// dispatcher work. It spawns the writer and funnels a final opGone so the
// dispatcher detaches the session however the connection ends.
func (s *Server) serveConn(conn net.Conn) {
	sess := &session{
		conn:   conn,
		out:    make(chan monitorapi.ServerFrame, 64),
		window: s.opts.Window,
	}
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		enc := json.NewEncoder(conn)
		for f := range sess.out {
			if f.Type == monitorapi.FrameAck {
				// Return the credit before the ack can reach the wire: a client
				// that refills the slot the moment it reads the ack must find
				// it free, or the reader counts a window overrun that never
				// happened.
				sess.unacked.Add(-1)
			}
			if err := enc.Encode(f); err != nil {
				sess.close() // keep draining so enqueue never blocks forever
			}
		}
	}()

	dec := json.NewDecoder(conn)
	opened := false
	// One decode buffer per connection: pre-setting cf.Batch makes the decoder
	// fill the same EventBatch every frame, reusing the Events backing array
	// across batches instead of allocating a fresh one per Decode. Safe because
	// history.FromWire copies everything it keeps out of the wire slice. Two
	// decoder subtleties the reuse has to compensate for: elements revived from
	// spare capacity keep their old field values wherever the JSON omits a key
	// (the wire format omits zero fields), so the backing array is cleared to
	// full capacity first; and a missing "batch" key no longer leaves cf.Batch
	// nil, so absent batches are caught by the seq guard below (batches number
	// from 1).
	var batch monitorapi.EventBatch
loop:
	for {
		batch.Seq = 0
		clear(batch.Events[:cap(batch.Events)])
		batch.Events = batch.Events[:0]
		cf := monitorapi.ClientFrame{Batch: &batch}
		if err := dec.Decode(&cf); err != nil {
			break
		}
		switch cf.Type {
		case monitorapi.FrameOpen:
			if opened || cf.Open == nil {
				s.abort(sess, monitorapi.FrameError, "unexpected open frame")
				break loop
			}
			opened = true
			s.ingest <- ingestMsg{sess: sess, op: opOpen, open: cf.Open}
		case monitorapi.FrameEvents:
			if !opened || cf.Batch == nil {
				s.abort(sess, monitorapi.FrameError, "events before open")
				break loop
			}
			if cf.Batch.Seq == 0 {
				// Batches number from 1, so a zero seq means the frame had no
				// usable batch payload (e.g. an events frame with the batch key
				// missing, which the reused decode buffer no longer reports as
				// a nil Batch).
				s.abort(sess, monitorapi.FrameError, "events frame without a batch (seq numbers from 1)")
				break loop
			}
			if int(sess.unacked.Add(1)) > sess.window {
				s.abort(sess, monitorapi.FrameOverload,
					fmt.Sprintf("credit window of %d batches overrun", sess.window))
				break loop
			}
			h, err := history.FromWire(cf.Batch.Events)
			if err != nil {
				s.abort(sess, monitorapi.FrameError,
					fmt.Sprintf("bad batch %d: %v", cf.Batch.Seq, err))
				break loop
			}
			// May block on the global ingest bound; TCP flow control
			// propagates the stall to the sender.
			s.ingest <- ingestMsg{sess: sess, op: opBatch, seq: cf.Batch.Seq, h: h}
		case monitorapi.FrameBye:
			if opened {
				s.ingest <- ingestMsg{sess: sess, op: opBye}
			}
			break loop
		default:
			s.abort(sess, monitorapi.FrameError, fmt.Sprintf("unknown frame type %q", cf.Type))
			break loop
		}
	}
	// The dispatcher may still hold queued work that enqueues frames for
	// this session, so for an opened session it is the dispatcher — on
	// processing opGone, its last message — that closes out. The connection
	// itself closes only after the writer has drained, so terminal frames
	// reach the client.
	if opened {
		s.ingest <- ingestMsg{sess: sess, op: opGone}
	} else {
		close(sess.out)
	}
	writer.Wait()
	sess.close()
}

// abort sends a terminal frame and closes the connection for reads; the
// writer drains the queued frame before serveConn's final close.
func (s *Server) abort(sess *session, frameType, msg string) {
	sess.enqueue(monitorapi.ServerFrame{Type: frameType, Err: msg}, s)
	sess.shutdownRead()
}

// absorbChunk bounds one absorb round, mirroring Decoupled's chunked absorb:
// the dispatcher re-checks the world every chunk instead of starving acks
// behind an unbounded drain.
const absorbChunk = 32

type pendingAck struct {
	sess *session
	seq  uint64
}

// roundBuf is one absorb round's staged work: the per-shard deltas the pool
// will apply in a single Shards.Append, and the acks owed once that round
// commits. deltas is kept across rounds and only as long as the highest
// shard ever staged; filled lists the entries this round set, so resetting
// it costs the shards touched, not the shards held.
type roundBuf struct {
	deltas []history.History
	filled []int
	acks   []pendingAck
}

// dispatch is the dispatcher goroutine: sole owner of the Shards value and
// of every object's applied/session state. Each round drains the queued
// ingest (bounded by absorbChunk) into per-shard deltas and applies them
// with one Shards.Append, so independent objects overlap on the pool.
func (s *Server) dispatch() {
	defer close(s.done)
	shards := check.NewShards(nil, s.opts.Workers)
	objects := make(map[string]*object)
	// Final checkpoints on drain: Close (and therefore SIGTERM in linmond)
	// closes the ingest channel after the readers stop, so every applied
	// batch is already committed when this runs — the graceful path loses
	// nothing, and the next instance's hello.Acked equals the last ack sent.
	defer func() {
		if s.opts.Store == nil {
			return
		}
		for _, obj := range objects {
			if obj.applied > obj.durable {
				s.checkpoint(shards, obj)
			}
		}
	}()

	cur := &roundBuf{}
	msg, ok := <-s.ingest
	for ok {
		// One absorb round, staged into cur.
		batched := 0
		for {
			switch msg.op {
			case opOpen:
				// A reopen's hello.Acked must count the batches its object
				// has staged in the round being assembled. Otherwise the
				// resumed session resends them, the resends are dropped as
				// duplicates, and their acks go to the session that first
				// sent them.
				if o := msg.open; o != nil {
					if obj := objects[o.Tenant+"\x00"+o.Object]; obj != nil && obj.staged > 0 {
						s.apply(shards, cur)
					}
				}
				s.handleOpen(shards, objects, msg)
			case opBatch:
				s.stageBatch(shards, msg, cur)
				batched++
			case opBye:
				if obj := msg.sess.obj; obj != nil && obj.sess == msg.sess {
					// A bye commits the object's batches still staged in this
					// round first (a client may say bye without draining its
					// acks), so the stats frame counts every batch the session
					// sent and follows every ack.
					if obj.staged > 0 {
						s.apply(shards, cur)
					}
					// A graceful bye leaves the object durable through its
					// last ack before the stats frame goes out, so once a
					// client's Close returns nothing more is written for the
					// object until a new session applies batches — not even
					// by the drain checkpoint of Close.
					if s.opts.Store != nil && obj.applied > obj.durable {
						s.checkpoint(shards, obj)
					}
					sh := shards.Shard(obj.shard)
					msg.sess.enqueue(monitorapi.ServerFrame{
						Type: monitorapi.FrameStats, Verdict: sh.Verdict().String(),
						Stats: &monitorapi.Stats{Check: sh.Stats()},
					}, s)
					// The object stays (a reopen resumes it), but until then
					// it holds only what a checkpoint would.
					sh.Park()
				}
			case opGone:
				if obj := msg.sess.obj; obj != nil && obj.sess == msg.sess {
					obj.sess = nil // object stays; a reconnect resumes it
				}
				close(msg.sess.out) // last message of the session: writer drains and exits
			}
			if batched >= absorbChunk {
				break
			}
			// Keep absorbing while more work is already queued.
			var more bool
			select {
			case msg, more = <-s.ingest:
				if !more {
					s.apply(shards, cur)
					return
				}
				continue
			default:
			}
			break
		}
		s.apply(shards, cur)
		msg, ok = <-s.ingest
	}
}

// stageBatch validates one batch's sequencing and stages its events into the
// round's per-shard delta. Replays (seq already applied) are acked without
// re-applying — that is what makes client resend-after-reconnect exactly-once.
// The replay ack carries the monitor's verdict as of the last committed
// round: nothing staged reaches the monitor before the round is applied.
func (s *Server) stageBatch(shards *check.Shards, msg ingestMsg, cur *roundBuf) {
	obj := msg.sess.obj
	if obj == nil || obj.sess != msg.sess {
		return // session aborted or superseded; drop
	}
	expect := obj.applied + obj.staged + 1
	if msg.seq != expect {
		if msg.seq <= obj.applied {
			// Replay of an applied batch (a resend that raced its ack, or a
			// post-restart resend of a batch the checkpoint already covers):
			// ack without re-applying.
			msg.sess.enqueue(monitorapi.ServerFrame{
				Type: monitorapi.FrameAck, Seq: msg.seq,
				Verdict: shards.Shard(obj.shard).Verdict().String(),
				Durable: obj.durable,
			}, s)
			return
		}
		if msg.seq <= obj.applied+obj.staged {
			return // duplicate of a staged batch; its ack comes at commit
		}
		s.abort(msg.sess, monitorapi.FrameError,
			fmt.Sprintf("batch gap: got seq %d, want %d", msg.seq, expect))
		return
	}
	for len(cur.deltas) <= obj.shard {
		cur.deltas = append(cur.deltas, nil)
	}
	if cur.deltas[obj.shard] == nil {
		cur.filled = append(cur.filled, obj.shard)
	}
	cur.deltas[obj.shard] = append(cur.deltas[obj.shard], msg.h...)
	obj.staged++
	cur.acks = append(cur.acks, pendingAck{msg.sess, msg.seq})
}

func (s *Server) handleOpen(shards *check.Shards, objects map[string]*object, msg ingestMsg) {
	o := msg.open
	if o.Version > monitorapi.ProtocolVersion || o.Version < 1 {
		s.abort(msg.sess, monitorapi.FrameError,
			fmt.Sprintf("protocol version %d unsupported (server speaks %d)",
				o.Version, monitorapi.ProtocolVersion))
		return
	}
	if o.Tenant == "" || o.Object == "" {
		s.abort(msg.sess, monitorapi.FrameError, "open needs tenant and object")
		return
	}
	if err := o.Config.Validate(); err != nil {
		s.abort(msg.sess, monitorapi.FrameError, fmt.Sprintf("config: %v", err))
		return
	}
	if _, known := spec.ByName(o.Model); !known {
		s.abort(msg.sess, monitorapi.FrameError, fmt.Sprintf("unknown model %q", o.Model))
		return
	}
	key := o.Tenant + "\x00" + o.Object
	obj := objects[key]
	switch {
	case obj == nil:
		var aborted bool
		obj, aborted = s.openObject(shards, o, key, msg.sess)
		if aborted {
			return
		}
		objects[key] = obj
	case obj.sess != nil && (o.Session == 0 || o.Session != obj.token):
		s.abort(msg.sess, monitorapi.FrameError,
			fmt.Sprintf("object %s/%s already has an active session", o.Tenant, o.Object))
		return
	case obj.model != o.Model || obj.cfg != o.Config:
		s.abort(msg.sess, monitorapi.FrameError,
			fmt.Sprintf("object %s/%s reopened with a different model or config", o.Tenant, o.Object))
		return
	case obj.sess != nil:
		// The attached session's own reconnect: its old connection is dead
		// but its teardown (opGone) is still queued behind this open.
		// Detach it now; the queued opGone then only closes it out.
		old := obj.sess
		obj.sess = nil
		s.abort(old, monitorapi.FrameError, "superseded by a reconnect of the same session")
	}
	if o.Window > 0 && o.Window < msg.sess.window {
		msg.sess.window = o.Window
	}
	obj.sess = msg.sess
	obj.token = rand.Uint64() | 1 // nonzero: 0 means "no token"
	msg.sess.obj = obj
	msg.sess.enqueue(monitorapi.ServerFrame{
		Type: monitorapi.FrameHello, Version: monitorapi.ProtocolVersion,
		Acked: obj.applied, Window: msg.sess.window,
		Persist: s.opts.Store != nil, Durable: obj.durable,
		Session: obj.token,
	}, s)
}

// openObject builds the object record for a first open of key on this
// instance. With a Store it first tries to restore the newest intact durable
// checkpoint: on success the session resumes at the checkpointed sequence; a
// durable object whose pinned model/config disagrees with the open aborts the
// session (exactly as a live mismatch would); a missing checkpoint starts
// fresh silently; a corrupt or unrestorable one starts fresh loudly — the
// client sees the truth in hello.Acked and either replays from its buffer or
// fails, never silently diverges (monitorclient's replay contract).
func (s *Server) openObject(shards *check.Shards, o *monitorapi.Open, key string, sess *session) (*object, bool) {
	obj := &object{
		tenant: o.Tenant,
		name:   o.Object,
		model:  o.Model,
		cfg:    o.Config,
		key:    key,
	}
	if s.opts.Store == nil {
		obj.shard = shards.Add(mustModel(o.Model), check.WithConfig(o.Config))
		return obj, false
	}
	payload, gen, err := s.opts.Store.Restore(key)
	if err != nil {
		if gens, gerr := s.opts.Store.Generations(key); gerr == nil && len(gens) > 0 {
			// Generations exist but none restored: log loudly, start fresh,
			// and anchor the CAS counter past them so the fresh line's first
			// save does not collide with the unreadable history.
			s.opts.Logf("linmond: %s/%s: no intact checkpoint, starting fresh: %v", o.Tenant, o.Object, err)
			obj.gen = gens[len(gens)-1]
		}
		obj.shard = shards.Add(mustModel(o.Model), check.WithConfig(o.Config))
		return obj, false
	}
	cp, err := monitorapi.DecodeCheckpoint(payload)
	if err == nil && (cp.Tenant != o.Tenant || cp.Object != o.Object) {
		err = fmt.Errorf("checkpoint belongs to %s/%s", cp.Tenant, cp.Object)
	}
	if err != nil {
		s.opts.Logf("linmond: %s/%s: generation %d unusable, starting fresh: %v", o.Tenant, o.Object, gen, err)
		obj.gen = gen
		obj.shard = shards.Add(mustModel(o.Model), check.WithConfig(o.Config))
		return obj, false
	}
	if cp.Model != o.Model || cp.Config != o.Config {
		s.abort(sess, monitorapi.FrameError,
			fmt.Sprintf("object %s/%s has durable state with a different model or config", o.Tenant, o.Object))
		return nil, true
	}
	inc, err := check.RestoreIncremental(cp.Monitor)
	if err != nil {
		s.opts.Logf("linmond: %s/%s: generation %d image rejected, starting fresh: %v", o.Tenant, o.Object, gen, err)
		obj.gen = gen
		obj.shard = shards.Add(mustModel(o.Model), check.WithConfig(o.Config))
		return obj, false
	}
	obj.shard = shards.AddMonitor(inc)
	obj.applied = cp.AppliedSeq
	obj.durable = cp.AppliedSeq
	obj.gen = gen
	s.opts.Logf("linmond: %s/%s: restored generation %d at seq %d", o.Tenant, o.Object, gen, cp.AppliedSeq)
	return obj, false
}

// mustModel resolves a model name handleOpen already validated.
func mustModel(name string) spec.Model {
	m, _ := spec.ByName(name)
	return m
}

// apply runs one staged absorb round and makes its results durable and
// visible: one Shards.Append, then applied cursors advance, due periodic
// checkpoints are taken, then acks and gauges stream out, and the round's
// buffers are reset for reuse. Checkpoints happen before acks so an ack's
// Durable field reflects this round's checkpoint, not the previous one.
func (s *Server) apply(shards *check.Shards, r *roundBuf) {
	if len(r.acks) == 0 {
		return
	}
	verdicts := shards.Append(r.deltas)
	var touched []*object
	for _, a := range r.acks {
		obj := a.sess.obj
		if obj == nil {
			continue
		}
		// The monitor consumed the batch either way, so applied advances
		// even when the session vanished mid-round (its opGone was absorbed
		// before this commit and its out channel is closed) — a reconnect
		// must not re-apply the batch.
		obj.applied = a.seq
		obj.staged--
		obj.sinceCkpt++
		if len(touched) == 0 || touched[len(touched)-1] != obj {
			touched = append(touched, obj)
		}
	}
	if s.opts.Store != nil {
		for _, obj := range touched {
			if obj.sinceCkpt >= s.opts.CheckpointEvery {
				s.checkpoint(shards, obj)
			}
		}
	}
	for _, a := range r.acks {
		obj := a.sess.obj
		if obj == nil || obj.sess != a.sess {
			continue
		}
		a.sess.acks++
		a.sess.enqueue(monitorapi.ServerFrame{
			Type: monitorapi.FrameAck, Seq: a.seq,
			Verdict: verdicts[obj.shard].String(),
			Durable: obj.durable,
		}, s)
		if s.opts.GaugeEvery > 0 && a.sess.acks%s.opts.GaugeEvery == 0 {
			st := shards.Shard(obj.shard).Stats()
			a.sess.enqueue(monitorapi.ServerFrame{
				Type: monitorapi.FrameGauge, Seq: a.seq,
				Gauge: &monitorapi.Gauge{
					RetainedEvents: st.RetainedEvents,
					RetainedBytes:  st.RetainedBytes,
					FrontierStates: st.FrontierStates,
				},
			}, s)
		}
	}
	// Keep the backing arrays, but nil the entries this round filled, so
	// event slices are never shared across rounds.
	for _, i := range r.filled {
		r.deltas[i] = nil
	}
	r.filled = r.filled[:0]
	r.acks = r.acks[:0]
}

// checkpoint durably saves one object's monitor under the CAS rule. Failures
// are logged and non-fatal — the monitor keeps running, the object's durable
// horizon simply stops advancing and the next due round retries. ErrStale
// means another instance is writing this key (two linmonds sharing a state
// dir); that is a deployment error worth shouting about, but shouting is all
// that is safe to do from here.
func (s *Server) checkpoint(shards *check.Shards, obj *object) {
	obj.sinceCkpt = 0
	img, err := shards.Shard(obj.shard).Checkpoint()
	if err != nil {
		s.opts.Logf("linmond: checkpoint %s/%s: %v", obj.tenant, obj.name, err)
		return
	}
	payload, err := monitorapi.EncodeCheckpoint(&monitorapi.Checkpoint{
		Version:    monitorapi.CheckpointVersion,
		Tenant:     obj.tenant,
		Object:     obj.name,
		Model:      obj.model,
		Config:     obj.cfg,
		AppliedSeq: obj.applied,
		Monitor:    img,
	})
	if err != nil {
		s.opts.Logf("linmond: checkpoint %s/%s: %v", obj.tenant, obj.name, err)
		return
	}
	gen, err := s.opts.Store.Save(obj.key, obj.gen, payload)
	if err != nil {
		if errors.Is(err, ckpt.ErrStale) {
			s.opts.Logf("linmond: checkpoint %s/%s: ANOTHER WRITER OWNS THIS KEY: %v", obj.tenant, obj.name, err)
		} else {
			s.opts.Logf("linmond: checkpoint %s/%s: %v", obj.tenant, obj.name, err)
		}
		return
	}
	obj.gen = gen
	obj.durable = obj.applied
}
