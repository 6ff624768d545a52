// Package monitorserver is the linmond monitoring service: it accepts NDJSON
// sessions (internal/monitorapi), runs one monitor per tenant/object on a
// pool of worker goroutines, and streams verdicts, gauges and stats back to
// clients.
//
// Concurrency model. One dispatcher goroutine owns every object's
// bookkeeping — applied and durable cursors, cached verdict, session binding
// — and the check.Shards registry, so Shards.Add never races. Options.Workers
// worker goroutines run objects' jobs: a job is one Append of the batches an
// object staged since its last job, plus the encoding of a periodic
// checkpoint when one is due. An object has at most one job out, and its
// monitor belongs to that job's worker until the job comes back — one
// goroutine per monitor at a time, which is the contract Shards documents.
// The dispatcher stages each batch on its object and hands the object to a
// free worker when it has no job out; batches that arrive meanwhile
// concatenate into the object's next job, so an object's stream stays
// ordered while different objects never wait for each other's searches.
// Each job is committed (cursors, acks, gauges) on the dispatcher as it
// comes back; an encoded checkpoint then goes to one of Options.Workers
// saver goroutines, which writes it to the Store while the object's next
// jobs run, so no ack waits for an fsync. A finished save returns to the
// dispatcher, which advances the object's durable horizon; acks carry the
// horizon on disk when they are sent. An open or bye of an object, and the
// drain of Close, first settle it: the dispatcher waits for that object's
// jobs and save only, after which it may read the monitor.
// Per-connection reader goroutines read one frame per line, decode events
// frames straight into histories (monitorapi.FrameDecoder) and queue work on
// a bounded global ingest channel; per-connection writer goroutines drain
// bounded per-session output queues into a buffered writer
// (monitorapi.AppendServerFrame) that is flushed whenever the queue runs dry.
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
	"bufio"
	"errors"
	"fmt"
	"io"
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
	// Workers is the number of worker goroutines that run objects' jobs
	// (default 1): at most this many objects' searches run at once. With a
	// Store it is also the number of saver goroutines that write periodic
	// checkpoints off the ack path: at most this many periodic checkpoints
	// are being written at once, and at most one per object.
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
	// the serialisation cost. A checkpoint that comes due while the object's
	// previous one is still being written, or while every saver is busy, is
	// taken by the object's first job after that, so under a slow disk the
	// cadence stretches instead of queueing writes.
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

// serveConn is the reader goroutine: read and decode frames, queue
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
		// Frames are appended to a buffered writer, which is flushed only
		// when the out-queue is empty: the acks of one finished job go out
		// in one write. The last frame before out closes always finds it
		// empty, so terminal frames are flushed before the final close.
		w := bufio.NewWriter(conn)
		for f := range sess.out {
			if f.Type == monitorapi.FrameAck {
				// Return the credit before the ack can reach the wire: a client
				// that refills the slot the moment it reads the ack must find
				// it free, or the reader counts a window overrun that never
				// happened.
				sess.unacked.Add(-1)
			}
			line, err := monitorapi.AppendServerFrame(w.AvailableBuffer(), f)
			if err == nil {
				_, err = w.Write(line)
			}
			if err == nil && len(sess.out) == 0 {
				err = w.Flush()
			}
			if err != nil {
				sess.close() // keep draining so enqueue never blocks forever
			}
		}
	}()

	br := bufio.NewReaderSize(conn, 16<<10)
	var dec monitorapi.FrameDecoder
	opened := false
loop:
	for {
		line, err := readLine(br)
		if err != nil && (err != io.EOF || len(line) == 0) {
			break // hung up, or the connection failed mid-line
		}
		if blank(line) {
			continue
		}
		f, err := dec.Decode(line)
		if err != nil {
			s.abort(sess, monitorapi.FrameError, fmt.Sprintf("bad frame: %v", err))
			break
		}
		switch f.Type {
		case monitorapi.FrameOpen:
			if opened || f.Open == nil {
				s.abort(sess, monitorapi.FrameError, "unexpected open frame")
				break loop
			}
			opened = true
			s.ingest <- ingestMsg{sess: sess, op: opOpen, open: f.Open}
		case monitorapi.FrameEvents:
			if !opened {
				s.abort(sess, monitorapi.FrameError, "events before open")
				break loop
			}
			if f.Batch == nil || f.Batch.Seq == 0 {
				s.abort(sess, monitorapi.FrameError, "events frame without a batch (seq numbers from 1)")
				break loop
			}
			if int(sess.unacked.Add(1)) > sess.window {
				s.abort(sess, monitorapi.FrameOverload,
					fmt.Sprintf("credit window of %d batches overrun", sess.window))
				break loop
			}
			if f.EventsErr != nil {
				s.abort(sess, monitorapi.FrameError,
					fmt.Sprintf("bad batch %d: %v", f.Batch.Seq, f.EventsErr))
				break loop
			}
			// May block on the global ingest bound; TCP flow control
			// propagates the stall to the sender.
			s.ingest <- ingestMsg{sess: sess, op: opBatch, seq: f.Batch.Seq, h: f.Events}
		case monitorapi.FrameBye:
			if opened {
				s.ingest <- ingestMsg{sess: sess, op: opBye}
			}
			break loop
		default:
			s.abort(sess, monitorapi.FrameError, fmt.Sprintf("unknown frame type %q", f.Type))
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

// readLine returns r's next line, newline included. A line longer than r's
// buffer is gathered into a fresh slice; otherwise the line aliases r's
// buffer and is valid until the next read. At the end of the stream it
// returns the unterminated rest, if any, with io.EOF.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	long := append([]byte(nil), line...)
	for err == bufio.ErrBufferFull {
		line, err = r.ReadSlice('\n')
		long = append(long, line...)
	}
	return long, err
}

// blank reports whether line holds nothing but JSON whitespace. Blank lines
// between frames are skipped, as the stream decoder before line framing
// skipped whitespace between values.
func blank(line []byte) bool {
	for _, c := range line {
		switch c {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// abort sends a terminal frame and closes the connection for reads; the
// writer drains the queued frame before serveConn's final close.
func (s *Server) abort(sess *session, frameType, msg string) {
	sess.enqueue(monitorapi.ServerFrame{Type: frameType, Err: msg}, s)
	sess.shutdownRead()
}

// object is one monitored tenant/object stream: its monitor plus resume and
// run-queue bookkeeping. Everything is dispatcher-owned, except that while a
// job of the object is out the worker running it owns inc; the identity
// fields (tenant through key) never change once the object exists.
type object struct {
	inc    *check.Incremental // registered in the dispatcher's Shards
	tenant string
	name   string
	model  string
	cfg    check.Config
	key    string // store key (tenant + NUL + object)

	applied uint64        // highest batch seq applied (committed)
	staged  int           // batches accepted but not committed: in the job out, or in next
	verdict check.Verdict // the monitor's verdict as of the last committed job
	sess    *session      // active session, nil when detached
	token   uint64        // hello.Session of the latest attachment

	// The batches staged since the object's last job, concatenated in seq
	// order. They wait here until the object has no job out and a worker is
	// free; an object with batches here and no job out is on the run queue.
	next  history.History
	nextN int // batches in next

	// Durability bookkeeping (Options.Store).
	gen       uint64 // newest store generation this instance wrote or restored
	durable   uint64 // highest batch seq covered by a durable checkpoint
	sinceCkpt int    // batches applied since the last checkpoint attempt
	saving    bool   // a periodic checkpoint is reserved or out on a saver
}

// running reports whether a job of the object is out on a worker: the
// staged batches not waiting in next are that job's.
func (o *object) running() bool { return o.staged > o.nextN }

// job is one run of an object's monitor on a worker: one Append of the
// batches staged since the object's last job, then, when a periodic
// checkpoint is due, its encoding. The dispatcher fills in the input and
// hands the job over on jobs; the worker fills in the results and hands it
// back on done. A job with a payload then goes on to a saver, reserved for
// it at launch, over writes: the saver writes the payload and hands the job
// back on written.
type job struct {
	obj   *object
	delta history.History
	n     int    // batches in delta
	last  uint64 // seq of delta's last batch
	save  bool   // encode a checkpoint after the Append; a saver is reserved
	gen   uint64 // store generation the checkpoint expects

	verdict check.Verdict
	payload []byte // the encoded checkpoint, when save
	err     error  // why encoding or, on the saver, writing failed
	saved   uint64 // generation written, when the save succeeded
}

// jobHook, when set, runs on the worker at the start of every job with the
// object's name. Tests set it to hold a job out; it is nil in production.
var jobHook func(object string)

// dispatcher is the state of the dispatcher goroutine: the only goroutine
// that touches objects, sessions' object bindings and the Shards registry.
// At most Options.Workers jobs are out at once, so jobs and done, each with
// that capacity, never block a send; objects with staged batches wait for a
// free worker on runq, in FIFO order. Likewise at most Options.Workers
// saves are reserved, so writes and written never block a send either; they
// are nil without a Store.
type dispatcher struct {
	srv     *Server
	shards  *check.Shards
	objects map[string]*object
	jobs    chan *job
	done    chan *job
	out     int       // jobs handed out and not yet finished
	runq    []*object // non-empty only while out == cap(jobs)
	writes  chan *job
	written chan *job
	saving  int // saves reserved at launch and not yet written back
	workers sync.WaitGroup
}

// dispatch is the dispatcher goroutine. It stages each batch on its object
// and hands the object to a worker whenever it has staged batches and no
// job out, so objects never wait for each other's searches or checkpoints,
// commits each finished job — cursors, acks, gauges — as it comes back, and
// advances an object's durable horizon when its save comes back.
func (s *Server) dispatch() {
	defer close(s.done)
	d := &dispatcher{
		srv: s,
		// A registry and a shared arena pool only: the workers below run the
		// monitors, Shards.Append is never called.
		shards:  check.NewShards(nil, 1),
		objects: make(map[string]*object),
		jobs:    make(chan *job, s.opts.Workers),
		done:    make(chan *job, s.opts.Workers),
	}
	for range s.opts.Workers {
		d.workers.Add(1)
		go d.work()
	}
	if s.opts.Store != nil {
		d.writes = make(chan *job, s.opts.Workers)
		d.written = make(chan *job, s.opts.Workers)
		for range s.opts.Workers {
			d.workers.Add(1)
			go d.saver()
		}
	}
	for {
		select {
		case msg, ok := <-s.ingest:
			if !ok {
				d.drain()
				return
			}
			d.handle(msg)
		case j := <-d.done:
			d.finish(j)
		case j := <-d.written:
			d.wrote(j)
		}
	}
}

// await commits the next job or save that comes back.
func (d *dispatcher) await() {
	select {
	case j := <-d.done:
		d.finish(j)
	case j := <-d.written:
		d.wrote(j)
	}
}

// handle runs one ingest message.
func (d *dispatcher) handle(msg ingestMsg) {
	switch msg.op {
	case opOpen:
		d.open(msg)
	case opBatch:
		d.stage(msg)
	case opBye:
		obj := msg.sess.obj
		if obj == nil || obj.sess != msg.sess {
			return
		}
		// A bye commits the object's staged batches first (a client may say
		// bye without draining its acks), so the stats frame counts every
		// batch the session sent and follows every ack.
		d.settle(obj)
		// A graceful bye leaves the object durable through its last ack
		// before the stats frame goes out, so once a client's Close returns
		// nothing more is written for the object until a new session applies
		// batches — not even by the drain checkpoint of Close.
		if d.srv.opts.Store != nil && obj.applied > obj.durable {
			d.checkpoint(obj)
		}
		msg.sess.enqueue(monitorapi.ServerFrame{
			Type: monitorapi.FrameStats, Verdict: obj.verdict.String(),
			Stats: &monitorapi.Stats{Check: obj.inc.Stats()},
		}, d.srv)
		// The object stays (a reopen resumes it), but until then it holds
		// only what a checkpoint would. The session is done with it: a
		// client whose Close returned may reopen the object before this
		// session's teardown (opGone) reaches the dispatcher, and must not
		// find its own old session still attached.
		obj.inc.Park()
		obj.sess = nil
	case opGone:
		if obj := msg.sess.obj; obj != nil && obj.sess == msg.sess {
			obj.sess = nil // object stays; a reconnect resumes it
		}
		close(msg.sess.out) // last message of the session: writer drains and exits
	}
}

// work is a worker goroutine: it runs jobs until the dispatcher closes jobs.
func (d *dispatcher) work() {
	defer d.workers.Done()
	for j := range d.jobs {
		if jobHook != nil {
			jobHook(j.obj.name)
		}
		j.verdict = j.obj.inc.Append(j.delta)
		if j.save {
			j.payload, j.err = j.obj.encode(j.last)
		}
		d.done <- j
	}
}

// saver is a saver goroutine: it writes the checkpoints jobs encoded until
// the dispatcher closes writes. The monitor is not touched here, so the
// object's next jobs run while the write is out.
func (d *dispatcher) saver() {
	defer d.workers.Done()
	for j := range d.writes {
		j.saved, j.err = d.srv.opts.Store.Save(j.obj.key, j.gen, j.payload)
		j.payload = nil
		d.written <- j
	}
}

// launch hands obj's staged batches to a worker as one job. The caller
// guarantees a free worker and that obj has no job out. A due checkpoint
// rides on the job only if obj has no save out and a saver is free; it
// reserves that saver, so the encoded payload never waits for one.
// Otherwise sinceCkpt keeps counting and a later job takes it.
func (d *dispatcher) launch(obj *object) {
	j := &job{obj: obj, delta: obj.next, n: obj.nextN, last: obj.applied + uint64(obj.nextN)}
	obj.next, obj.nextN = nil, 0
	obj.sinceCkpt += j.n
	if d.writes != nil && obj.sinceCkpt >= d.srv.opts.CheckpointEvery &&
		!obj.saving && d.saving < cap(d.writes) {
		j.save, j.gen = true, obj.gen
		obj.sinceCkpt = 0
		obj.saving = true
		d.saving++
	}
	d.out++
	d.jobs <- j
}

// pump launches waiting objects while workers are free.
func (d *dispatcher) pump() {
	for d.out < cap(d.jobs) && len(d.runq) > 0 {
		obj := d.runq[0]
		d.runq[0] = nil
		d.runq = d.runq[1:]
		d.launch(obj)
	}
}

// ready puts obj, which has staged batches and no job out, on the run queue.
func (d *dispatcher) ready(obj *object) {
	d.runq = append(d.runq, obj)
	d.pump()
}

// finish commits a job that came back at once: the applied cursor and the
// cached verdict advance, the batches' acks and gauges go out, and then a
// checkpoint the job encoded goes to its reserved saver. An ack's Durable is
// the horizon already on disk when it is sent, so it never runs ahead of
// disk but may lag the ack's own seq; the job's checkpoint advances it when
// the save comes back (wrote). The monitor consumed the batches whether or
// not their session is still attached, so applied advances either way and a
// reconnect does not re-apply them; acks go to the attached session, which
// is the one that sent them (a new session attaches only to a settled
// object). Batches staged while the job ran relaunch the object.
func (d *dispatcher) finish(j *job) {
	d.out--
	obj := j.obj
	obj.applied = j.last
	obj.staged -= j.n
	obj.verdict = j.verdict
	if sess := obj.sess; sess != nil {
		opts := &d.srv.opts
		for seq := j.last - uint64(j.n) + 1; seq <= j.last; seq++ {
			sess.acks++
			sess.enqueue(monitorapi.ServerFrame{
				Type: monitorapi.FrameAck, Seq: seq,
				Verdict: j.verdict.String(),
				Durable: obj.durable,
			}, d.srv)
			if opts.GaugeEvery > 0 && sess.acks%opts.GaugeEvery == 0 {
				st := obj.inc.Stats()
				sess.enqueue(monitorapi.ServerFrame{
					Type: monitorapi.FrameGauge, Seq: seq,
					Gauge: &monitorapi.Gauge{
						RetainedEvents: st.RetainedEvents,
						RetainedBytes:  st.RetainedBytes,
						FrontierStates: st.FrontierStates,
					},
				}, d.srv)
			}
		}
	}
	if j.save {
		if j.err != nil {
			d.release(obj)
			d.saved(obj, j.last, 0, j.err)
		} else {
			d.writes <- j // the saver was reserved at launch: never blocks
		}
	}
	if obj.nextN > 0 {
		d.ready(obj)
	} else {
		d.pump()
	}
}

// wrote commits a save that came back: the saver is free again, and a
// successful write makes the object durable through the job's last batch.
// The new horizon rides on the object's next ack or hello.
func (d *dispatcher) wrote(j *job) {
	d.release(j.obj)
	d.saved(j.obj, j.last, j.saved, j.err)
}

// release returns the saver reserved for obj's periodic checkpoint.
func (d *dispatcher) release(obj *object) {
	obj.saving = false
	d.saving--
}

// settle returns once obj has no job out, nothing staged and no save out:
// every batch it accepted is committed and acked, its store generation is
// settled, and its monitor is the dispatcher's to read. It waits for obj's
// jobs and save only. Other objects' jobs and saves that come back
// meanwhile are committed (and relaunched) as usual; nothing new is read
// from the ingest queue until it returns.
func (d *dispatcher) settle(obj *object) {
	// Staged batches are on a job out or on the run queue, and the run queue
	// is non-empty only while every worker is busy, so a job always comes
	// back; a save out is on a saver, which always writes it back.
	for obj.staged > 0 || obj.saving {
		d.await()
	}
}

// drain runs when Close has stopped every reader: it waits for all jobs and
// saves, stops the workers and savers and takes the final checkpoints. Every
// applied batch is committed by then, so the graceful path (Close, and
// SIGTERM in linmond) loses nothing, and the next instance's hello.Acked
// equals the last ack sent.
func (d *dispatcher) drain() {
	for d.out > 0 || d.saving > 0 {
		d.await()
	}
	close(d.jobs)
	if d.writes != nil {
		close(d.writes)
	}
	d.workers.Wait()
	if d.srv.opts.Store == nil {
		return
	}
	for _, obj := range d.objects {
		if obj.applied > obj.durable {
			d.checkpoint(obj)
		}
	}
}

// stage validates one batch's sequencing and stages its events on its
// object, readying the object if it has no job out. Replays (seq already
// applied) are acked without re-applying — that is what makes client
// resend-after-reconnect exactly-once. A replay ack carries the object's
// cached verdict, as of its last committed job: a job may be out on the
// monitor, which the dispatcher then must not read.
func (d *dispatcher) stage(msg ingestMsg) {
	obj := msg.sess.obj
	if obj == nil || obj.sess != msg.sess {
		return // session aborted or superseded; drop
	}
	expect := obj.applied + uint64(obj.staged) + 1
	if msg.seq != expect {
		if msg.seq <= obj.applied {
			// Replay of an applied batch (a resend that raced its ack, or a
			// post-restart resend of a batch the checkpoint already covers):
			// ack without re-applying.
			msg.sess.enqueue(monitorapi.ServerFrame{
				Type: monitorapi.FrameAck, Seq: msg.seq,
				Verdict: obj.verdict.String(),
				Durable: obj.durable,
			}, d.srv)
			return
		}
		if msg.seq < expect {
			return // duplicate of a staged batch; its ack comes at commit
		}
		d.srv.abort(msg.sess, monitorapi.FrameError,
			fmt.Sprintf("batch gap: got seq %d, want %d", msg.seq, expect))
		return
	}
	if obj.nextN == 0 {
		obj.next = msg.h // the reader handed over a fresh slice
	} else {
		obj.next = append(obj.next, msg.h...)
	}
	obj.nextN++
	obj.staged++
	if obj.nextN == 1 && !obj.running() {
		d.ready(obj) // the first batch of an idle object
	}
}

// open attaches a session to its object, creating (or restoring) the object
// on its first open. An existing object is settled first, so hello.Acked
// counts every batch it accepted: a resumed session that resent staged
// batches would see them dropped as duplicates, with their acks owed to the
// session that first sent them.
func (d *dispatcher) open(msg ingestMsg) {
	s := d.srv
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
	obj := d.objects[key]
	if obj != nil {
		d.settle(obj)
	}
	switch {
	case obj == nil:
		var aborted bool
		obj, aborted = d.openObject(o, key, msg.sess)
		if aborted {
			return
		}
		d.objects[key] = obj
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
func (d *dispatcher) openObject(o *monitorapi.Open, key string, sess *session) (*object, bool) {
	s := d.srv
	obj := &object{
		tenant: o.Tenant,
		name:   o.Object,
		model:  o.Model,
		cfg:    o.Config,
		key:    key,
	}
	if s.opts.Store == nil {
		d.add(obj, nil)
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
		d.add(obj, nil)
		return obj, false
	}
	cp, err := monitorapi.DecodeCheckpoint(payload)
	if err == nil && (cp.Tenant != o.Tenant || cp.Object != o.Object) {
		err = fmt.Errorf("checkpoint belongs to %s/%s", cp.Tenant, cp.Object)
	}
	if err != nil {
		s.opts.Logf("linmond: %s/%s: generation %d unusable, starting fresh: %v", o.Tenant, o.Object, gen, err)
		obj.gen = gen
		d.add(obj, nil)
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
		d.add(obj, nil)
		return obj, false
	}
	d.add(obj, inc)
	obj.applied = cp.AppliedSeq
	obj.durable = cp.AppliedSeq
	obj.gen = gen
	s.opts.Logf("linmond: %s/%s: restored generation %d at seq %d", o.Tenant, o.Object, gen, cp.AppliedSeq)
	return obj, false
}

// add registers obj's monitor: inc, restored from a checkpoint, or a fresh
// monitor for obj's model and config when inc is nil.
func (d *dispatcher) add(obj *object, inc *check.Incremental) {
	if inc == nil {
		obj.inc = d.shards.Shard(d.shards.Add(mustModel(obj.model), check.WithConfig(obj.cfg)))
	} else {
		obj.inc = d.shards.Shard(d.shards.AddMonitor(inc))
	}
	obj.verdict = obj.inc.Verdict()
}

// mustModel resolves a model name open already validated.
func mustModel(name string) spec.Model {
	m, _ := spec.ByName(name)
	return m
}

// checkpoint durably saves a settled object's monitor on the dispatcher,
// encoding and writing in one go: the bye and drain checkpoints.
func (d *dispatcher) checkpoint(obj *object) {
	obj.sinceCkpt = 0
	gen, err := d.srv.save(obj, obj.applied, obj.gen)
	d.saved(obj, obj.applied, gen, err)
}

// saved commits a checkpoint attempt of obj through batch seq applied.
// Failures are logged and non-fatal — the monitor keeps running, the
// object's durable horizon simply stops advancing and the next due
// checkpoint retries. ErrStale means another instance is writing this key
// (two linmonds sharing a state dir); that is a deployment error worth
// shouting about, but shouting is all that is safe to do from here.
func (d *dispatcher) saved(obj *object, applied, gen uint64, err error) {
	if err != nil {
		if errors.Is(err, ckpt.ErrStale) {
			d.srv.opts.Logf("linmond: checkpoint %s/%s: ANOTHER WRITER OWNS THIS KEY: %v", obj.tenant, obj.name, err)
		} else {
			d.srv.opts.Logf("linmond: checkpoint %s/%s: %v", obj.tenant, obj.name, err)
		}
		return
	}
	obj.gen = gen
	obj.durable = applied
}

// save writes obj's monitor, applied through batch seq applied, to the store
// as generation gen+1 under the CAS rule, and returns the generation
// written. It runs on the dispatcher, for the bye and drain checkpoints of
// a settled object; a periodic checkpoint is split instead, encoded by the
// job that holds the monitor and written by a saver.
func (s *Server) save(obj *object, applied, gen uint64) (uint64, error) {
	payload, err := obj.encode(applied)
	if err != nil {
		return 0, err
	}
	return s.opts.Store.Save(obj.key, gen, payload)
}

// encode serialises o's monitor, applied through batch seq applied, as a
// checkpoint payload. It runs on whichever goroutine holds the monitor.
func (o *object) encode(applied uint64) ([]byte, error) {
	img, err := o.inc.Checkpoint()
	if err != nil {
		return nil, err
	}
	return monitorapi.EncodeCheckpoint(&monitorapi.Checkpoint{
		Version:    monitorapi.CheckpointVersion,
		Tenant:     o.tenant,
		Object:     o.name,
		Model:      o.model,
		Config:     o.cfg,
		AppliedSeq: applied,
		Monitor:    img,
	})
}
