package soak

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/history"
	"repro/internal/monitorapi"
	"repro/internal/monitorclient"
	"repro/internal/monitorserver"
	"repro/internal/spec"
)

// StreamConfig drives Stream and RunReplay.
type StreamConfig struct {
	// Addr is the linmond server to stream into; "" starts an in-process
	// server on a loopback listener for the duration of the run.
	Addr string
	// Tenant and Object name the monitored stream.
	Tenant, Object string
	// Batch is the number of events per wire batch (default 64).
	Batch int
	// Speed scales the recorded pace from the events' "at" timestamps: 1
	// streams in recorded time, 2 twice as fast, and <= 0 as fast as the
	// connection accepts (no pacing). Untimed streams are never paced.
	Speed float64
	// CrashEvery > 0 is the crash-restart leg: the in-process server
	// checkpoints to a store on a fault-injectable in-memory filesystem and
	// is closed and served again on the same address every CrashEvery
	// batches — every other restart with the drain checkpoint's fsync
	// failing, so recovery falls back a generation and the client's replay
	// buffer covers the gap. It needs the in-process server (Addr == "").
	CrashEvery int
	// Monitor is the monitor configuration carried in the open frame and
	// mirrored by the local cross-check monitor.
	Monitor check.Config
}

// StreamResult reports one streamed run: the streamed verdict, the local
// cross-check verdict, the server's applied-event count and the pacing
// actually achieved.
type StreamResult struct {
	Model    string        // model verified against
	Events   int           // events streamed
	Batches  int           // wire batches sent
	Applied  int           // events the server applied, from its final stats
	Restarts int           // forced server restarts (CrashEvery)
	Streamed check.Verdict // verdict from the linmond session
	Local    check.Verdict // verdict from the in-process cross-check monitor
	TraceNs  int64         // recorded span of the stream (last at - first at; 0 if untimed)
	WallNs   int64         // wall-clock span of the run
	Err      string        // first failure; "" if none
}

// Fault says why the run is not Ok — its failure, else its divergence from
// the local monitor — and is "" when it is.
func (r StreamResult) Fault() string {
	switch {
	case r.Err != "":
		return r.Err
	case r.Streamed != r.Local:
		return fmt.Sprintf("streamed verdict %v, local %v", r.Streamed, r.Local)
	case r.Applied != r.Events:
		return fmt.Sprintf("exactly-once violated: %d events applied, stream has %d", r.Applied, r.Events)
	}
	return ""
}

// Ok reports whether the run completed, the streamed verdict agreed with the
// local monitor's, and the server applied every streamed event exactly once.
func (r StreamResult) Ok() bool { return r.Fault() == "" }

// Events is a stream's event source: each call returns the next event and
// its recorded timestamp (0 when untimed), and io.EOF after the last event.
// (*monitorapi.HistoryReader).Next is one; Slice serves a history in memory.
type Events func() (history.Event, int64, error)

// Slice serves h, untimed, as an event source.
func Slice(h history.History) Events {
	return func() (history.Event, int64, error) {
		if len(h) == 0 {
			return history.Event{}, 0, io.EOF
		}
		e := h[0]
		h = h[1:]
		return e, 0, nil
	}
}

// Stream streams events into a linmond session under model m, cut into
// cfg.Batch-event batches, and cross-checks the session against an
// in-process monitor fed the same batches: the final verdicts must agree and
// the server must have applied every event exactly once. Pacing follows
// each batch's first event: the batch is sent no earlier than
// (at - origin)/Speed into the run. Stream deliberately does NOT stop at a
// No verdict — a monitor keeps absorbing the rest of its stream, which is
// exactly what a live deployment does after a violation.
func Stream(m spec.Model, next Events, cfg StreamConfig) StreamResult {
	res := StreamResult{Model: m.Name()}
	fail := func(err error) StreamResult {
		res.Err = err.Error()
		return res
	}
	if cfg.Batch < 1 {
		cfg.Batch = 64
	}

	addr := cfg.Addr
	var srv *inProcess
	switch {
	case addr == "":
		var err error
		if srv, err = serve(cfg.CrashEvery > 0); err != nil {
			return fail(err)
		}
		defer func() { srv.srv.Close() }() // the one serving after any restart
		addr = srv.addr
	case cfg.CrashEvery > 0:
		return fail(fmt.Errorf("the crash-restart leg restarts its own in-process server; it cannot use %s", addr))
	}
	sess, err := dial(addr, m.Name(), cfg)
	if err != nil {
		return fail(err)
	}
	closed := false
	defer func() {
		if !closed {
			sess.Close()
		}
	}()
	local := check.NewIncremental(m, check.WithConfig(cfg.Monitor))

	var (
		batch   = make(history.History, 0, cfg.Batch)
		batchAt int64 // first event's timestamp in the staged batch
		origin  int64
		timed   bool
		lastAt  int64
		start   = time.Now()
	)
	send := func() error {
		if len(batch) == 0 {
			return nil
		}
		if cfg.CrashEvery > 0 && res.Batches > 0 && res.Batches%cfg.CrashEvery == 0 {
			res.Restarts++
			if err := srv.restart(res.Restarts%2 == 0); err != nil {
				return err
			}
		}
		if cfg.Speed > 0 && timed {
			due := time.Duration(float64(batchAt-origin) / cfg.Speed)
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}
		res.Local = local.Append(batch)
		if err := sess.Send(batch); err != nil {
			return err
		}
		res.Batches++
		batch = batch[:0]
		return nil
	}
	res.Local = check.Yes
	for {
		e, at, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		if at != 0 {
			if !timed {
				origin, timed = at, true
			}
			lastAt = at
		}
		if len(batch) == 0 {
			batchAt = at
		}
		batch = append(batch, e)
		res.Events++
		if len(batch) == cfg.Batch {
			if err := send(); err != nil {
				return fail(err)
			}
		}
	}
	if err := send(); err != nil {
		return fail(err)
	}
	res.Streamed, err = sess.Close()
	closed = true
	if err != nil {
		return fail(err)
	}
	res.WallNs = time.Since(start).Nanoseconds()
	if timed && lastAt > origin {
		res.TraceNs = lastAt - origin
	}
	if st := sess.Stats(); st != nil {
		res.Applied = st.Check.Events
	}
	return res
}

// The reconnect policy of every session: a restarted server gets redials
// tries, redialDelay apart. So does the first dial while the address refuses
// connections, since it can race a server that is still binding it.
const (
	redials     = 20
	redialDelay = 250 * time.Millisecond
)

func dial(addr, model string, cfg StreamConfig) (*monitorclient.Session, error) {
	for i := 0; ; i++ {
		sess, err := monitorclient.Dial(addr, cfg.Tenant, cfg.Object, model,
			monitorclient.WithConfig(cfg.Monitor),
			monitorclient.WithReconnect(redials, redialDelay))
		if err == nil || i == redials || !errors.Is(err, syscall.ECONNREFUSED) {
			return sess, err
		}
		time.Sleep(redialDelay)
	}
}

// inProcess is the linmond of a run without an Addr, on a loopback
// listener; with a store it can be restarted on its address.
type inProcess struct {
	opts monitorserver.Options
	ffs  *ckpt.FaultFS // the store's filesystem; nil without one
	srv  *monitorserver.Server
	addr string
}

func serve(durable bool) (*inProcess, error) {
	// Injected checkpoint failures are the point of the crash leg, not news.
	p := &inProcess{opts: monitorserver.Options{Workers: 2, GaugeEvery: -1, Logf: func(string, ...any) {}}}
	if durable {
		p.ffs = ckpt.NewFaultFS(ckpt.NewMemFS())
		store, err := ckpt.NewStore(p.ffs, "state")
		if err != nil {
			return nil, err
		}
		p.opts.Store, p.opts.CheckpointEvery = store, 4
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.srv = monitorserver.Serve(ln, p.opts)
	p.addr = ln.Addr().String()
	return p, nil
}

// restart closes the server — with failSync, failing its drain checkpoint's
// fsync under ENOSPC — and serves again on the same address from the store.
func (p *inProcess) restart(failSync bool) error {
	if failSync {
		p.ffs.FailN(ckpt.OpSync, 1, ckpt.ErrNoSpace)
	}
	p.srv.Close()
	p.ffs.Arm(nil)
	var err error
	for i := 0; i < 200; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", p.addr); err == nil {
			p.srv = monitorserver.Serve(ln, p.opts)
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("relisten %s: %w", p.addr, err)
}

// RunReplay streams a corpus trace (a v1 interchange envelope, decoded
// through the streaming reader — the file is never materialised) through
// Stream, tenant "replay" and the path as object unless cfg names them.
// The model is the envelope's; model overrides it when non-empty (and is
// required for envelopes that omit one). A failure before streaming — the
// file, the envelope's header, the model — leaves Model empty.
func RunReplay(path, model string, cfg StreamConfig) StreamResult {
	fail := func(err error) StreamResult { return StreamResult{Err: err.Error()} }
	f, err := os.Open(path)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	hr, err := monitorapi.NewHistoryReader(f)
	if err != nil {
		return fail(err)
	}
	if model == "" {
		model = hr.Model()
	}
	if model == "" {
		return fail(fmt.Errorf("trace %s declares no model; pass one explicitly", path))
	}
	m, ok := spec.ByName(model)
	if !ok {
		return fail(fmt.Errorf("unknown model %q (supported: %s; see docs/formats.md)", model, spec.ModelNames()))
	}
	if cfg.Tenant == "" {
		cfg.Tenant = "replay"
	}
	if cfg.Object == "" {
		cfg.Object = path
	}
	return Stream(m, hr.Next, cfg)
}
