// Package monitorclient is the client library for the linmond monitoring
// service (internal/monitorserver, wire format internal/monitorapi). A
// Session streams one object's operation events to the server and surfaces
// the streamed verdicts, gauges and final stats.
//
// Flow control. The session holds a credit window of W unacked batches
// (granted by the server's hello). Send streams a batch and returns without
// waiting when credit is available; at the window it blocks reading acks
// until credit frees — so a client can never trip the server's overload
// response, and a slow monitor backpressures the instrumented program at
// batch granularity rather than per event.
//
// Reconnect. Sent-but-unacked batches are kept until acked. On a broken
// connection (when WithReconnect is set) the session redials, reopens the
// same object under the hello's session token — so the server replaces the
// dead connection even before it has seen it close, rather than refusing a
// second session — trims the pending list by the hello's acked sequence and
// resends the rest, never more than the credit window at a time; the
// server's seq-based dedup makes the resend exactly-once. The protocol is
// synchronous — the session owns its connection from one goroutine, reading
// acks inline — so a Session is not safe for concurrent use.
//
// Server restarts. A server that persists monitor state (hello.Persist) may
// greet a reconnect with an Acked BELOW what it previously acknowledged —
// its newest durable checkpoint. The session therefore keeps acked batches
// in a replay buffer until the server's durable horizon (hello/ack Durable)
// passes them, and on such a regression re-stages exactly the buffered tail
// past the restored sequence; server-side state loss is thereby bounded by
// the checkpoint lag, invisibly to the caller. Against a non-persistent
// server nothing is buffered beyond the unacked window, and a restart that
// regresses below it fails the session loudly — resuming would silently
// hand the monitor a history with a hole in it.
package monitorclient

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/check"
	"repro/internal/history"
	"repro/internal/monitorapi"
)

// Option configures a Dial.
type Option func(*Session)

// WithConfig sets the monitor configuration for the object (validated
// server-side; the zero Config is the library default).
func WithConfig(cfg check.Config) Option {
	return func(s *Session) { s.cfg = cfg }
}

// WithWindow requests a credit window of at most w unacked batches. The
// server may grant less; the hello's grant wins.
func WithWindow(w int) Option {
	return func(s *Session) { s.reqWindow = w }
}

// WithReconnect enables redial-and-resume on connection failure: up to n
// attempts per Send/Drain call, delay apart. n <= 0 disables (the default).
func WithReconnect(n int, delay time.Duration) Option {
	return func(s *Session) { s.reconnects, s.redialDelay = n, delay }
}

// WithGauges registers fn to receive gauge frames as they arrive (called
// inline from Send/Drain on the caller's goroutine).
func WithGauges(fn func(monitorapi.Gauge)) Option {
	return func(s *Session) { s.onGauge = fn }
}

// Session is one object's monitoring stream. Not safe for concurrent use.
type Session struct {
	addr    string
	tenant  string
	object  string
	model   string
	cfg     check.Config
	onGauge func(monitorapi.Gauge)

	reqWindow   int
	reconnects  int
	redialDelay time.Duration

	conn    *wireConn
	window  int
	nextSeq uint64
	verdict check.Verdict
	pending []monitorapi.EventBatch // queued, not yet acked (resend buffer)
	sent    int                     // pending batches written on the current connection
	persist bool                    // server checkpoints durably (hello.Persist)
	session uint64                  // hello.Session of the last connection, presented on reconnect
	replay  []monitorapi.EventBatch // acked, not yet durable (restart buffer; persist only)
	stats   *monitorapi.Stats
	err     error
}

// Dial connects to a linmond server and opens a session for tenant/object
// under the named model.
func Dial(addr, tenant, object, model string, opts ...Option) (*Session, error) {
	s := &Session{
		addr: addr, tenant: tenant, object: object, model: model,
		nextSeq: 1, verdict: check.Yes,
	}
	for _, o := range opts {
		o(s)
	}
	if err := s.connect(); err != nil {
		return nil, err
	}
	return s, nil
}

// connect dials, opens and processes the hello; on a resumed session it
// trims and resends the pending batches.
func (s *Session) connect() error {
	nc, err := net.Dial("tcp", s.addr)
	if err != nil {
		return err
	}
	conn := newWireConn(nc)
	err = conn.send(monitorapi.ClientFrame{Type: monitorapi.FrameOpen, Open: &monitorapi.Open{
		Version: monitorapi.ProtocolVersion,
		Tenant:  s.tenant, Object: s.object, Model: s.model,
		Config: s.cfg, Window: s.reqWindow, Session: s.session,
	}})
	if err != nil {
		nc.Close()
		return err
	}
	hello, err := conn.recv()
	if err != nil {
		nc.Close()
		return err
	}
	if hello.Type != monitorapi.FrameHello {
		nc.Close()
		if hello.Err != "" {
			return fmt.Errorf("open rejected: %s", hello.Err)
		}
		return fmt.Errorf("expected hello, got %q", hello.Type)
	}
	if hello.Version > monitorapi.ProtocolVersion {
		nc.Close()
		return fmt.Errorf("server protocol %d newer than client %d", hello.Version, monitorapi.ProtocolVersion)
	}
	s.conn = conn
	s.session = hello.Session
	s.window = hello.Window
	if s.window < 1 {
		s.window = 1
	}
	if hello.Persist {
		s.persist = true
	}
	// Durable horizon first: batches the server has checkpointed can never
	// be asked for again, whatever happens to it.
	for len(s.replay) > 0 && s.replay[0].Seq <= hello.Durable {
		s.replay = s.replay[1:]
	}
	// A restarted server greets with Acked regressed to its newest durable
	// checkpoint. Re-stage the replay-buffered tail past it: those batches
	// were acked by the previous incarnation but are not in this one.
	if n := len(s.replay); n > 0 && s.replay[n-1].Seq > hello.Acked {
		i := 0
		for i < n && s.replay[i].Seq <= hello.Acked {
			i++
		}
		s.pending = append(append([]monitorapi.EventBatch(nil), s.replay[i:]...), s.pending...)
		s.replay = s.replay[:i]
	}
	// Resume: drop batches the server already applied, resend the rest. A
	// fresh Session attaching to an object the server has prior state for
	// (client process restart) continues the sequence after the applied
	// prefix — its events are the stream's continuation, not a replay.
	for len(s.pending) > 0 && s.pending[0].Seq <= hello.Acked {
		if s.persist {
			s.replay = append(s.replay, s.pending[0])
		}
		s.pending = s.pending[1:]
	}
	if s.nextSeq <= hello.Acked {
		s.nextSeq = hello.Acked + 1
	}
	// The resend must continue the server's stream without a hole. A gap
	// means the server lost state beyond what the session still buffers —
	// a restarted server without persistence, or a regression past the
	// replay buffer. Resuming would silently monitor a history with a hole
	// in it; failing here is the fix for exactly that (terminal: redialing
	// reaches the same restarted server and the same gap).
	floor := s.nextSeq
	if len(s.pending) > 0 {
		floor = s.pending[0].Seq
	}
	if floor > hello.Acked+1 {
		nc.Close()
		s.conn = nil
		return s.terminal(fmt.Errorf(
			"server lost batches %d..%d of %s/%s (restart acked %d, durable %d): beyond the session's replay buffer",
			hello.Acked+1, floor-1, s.tenant, s.object, hello.Acked, hello.Durable))
	}
	// The resend may exceed the credit window (a restart re-stages the replay
	// tail ahead of the unacked batches); flush writes one window's worth and
	// the ack loops in Send and Drain write the rest as credit frees.
	s.sent = 0
	if err := s.flush(); err != nil {
		nc.Close()
		s.conn = nil
		return err
	}
	return nil
}

// flush writes the pending batches the current connection has not carried
// yet, up to the credit window.
func (s *Session) flush() error {
	for s.sent < len(s.pending) && s.sent < s.window {
		if err := s.conn.send(monitorapi.ClientFrame{Type: monitorapi.FrameEvents, Batch: &s.pending[s.sent]}); err != nil {
			return err
		}
		s.sent++
	}
	return nil
}

// Verdict returns the object's verdict as of the last ack.
func (s *Session) Verdict() check.Verdict { return s.verdict }

// Stats returns the final counter report, available after Close.
func (s *Session) Stats() *monitorapi.Stats { return s.stats }

// Send streams a batch of events — one contiguous slice of the object's
// stream, in program order. It blocks only when the credit window is full,
// reading acks (and gauges) until a slot frees.
func (s *Session) Send(events history.History) error {
	if s.err != nil {
		return s.err
	}
	wire, err := history.ToWire(events)
	if err != nil {
		return s.fail(err)
	}
	queued := false
	return s.withRetry(func() error {
		for len(s.pending) >= s.window {
			if err := s.flush(); err != nil {
				return err
			}
			if err := s.readFrame(); err != nil {
				return err
			}
		}
		if !queued {
			// The batch takes its sequence number and joins pending together,
			// BEFORE the write: that hands it to the resume path. If the wire
			// dies mid-send, connect trims it by the hello's acked sequence
			// and resends it with the rest of the pending tail. Numbering it
			// any earlier — say, before waiting for credit above — would let
			// a reconnect in that wait see a sequence past the server's acked
			// with nothing buffered to fill it, and report a false gap. A
			// batch both carried by the dying wire and resent by connect is
			// absorbed by the server's seq dedup.
			s.pending = append(s.pending, monitorapi.EventBatch{Seq: s.nextSeq, Events: wire})
			s.nextSeq++
			queued = true
		}
		return s.flush()
	})
}

// Drain blocks until every sent batch is acked and returns the verdict.
func (s *Session) Drain() (check.Verdict, error) {
	if s.err != nil {
		return s.verdict, s.err
	}
	err := s.withRetry(func() error {
		for len(s.pending) > 0 {
			if err := s.flush(); err != nil {
				return err
			}
			if err := s.readFrame(); err != nil {
				return err
			}
		}
		return nil
	})
	return s.verdict, err
}

// Close drains, says bye, reads the final stats and closes the connection.
func (s *Session) Close() (check.Verdict, error) {
	if _, err := s.Drain(); err != nil {
		s.hangup()
		return s.verdict, err
	}
	err := s.withRetry(func() error {
		if err := s.conn.send(monitorapi.ClientFrame{Type: monitorapi.FrameBye}); err != nil {
			return err
		}
		for s.stats == nil {
			if err := s.readFrame(); err != nil {
				return err
			}
		}
		return nil
	})
	s.hangup()
	if err != nil {
		return s.verdict, err
	}
	return s.verdict, nil
}

func (s *Session) hangup() {
	if s.conn != nil {
		s.conn.close()
		s.conn = nil
	}
}

// readFrame processes one server frame: acks move the window and verdict,
// gauges go to the callback, stats complete a bye, overload/error are
// terminal.
func (s *Session) readFrame() error {
	f, err := s.conn.recv()
	if err != nil {
		return err
	}
	switch f.Type {
	case monitorapi.FrameAck:
		for len(s.pending) > 0 && s.pending[0].Seq <= f.Seq {
			if s.persist {
				// Keep acked batches until the durable horizon passes them:
				// a restarted server may regress to its newest checkpoint,
				// and these are what connect re-stages (bounded by the
				// server's checkpoint lag, not the stream length).
				s.replay = append(s.replay, s.pending[0])
			}
			s.pending = s.pending[1:]
			s.sent = max(s.sent-1, 0)
		}
		for len(s.replay) > 0 && s.replay[0].Seq <= f.Durable {
			s.replay = s.replay[1:]
		}
		if v, err := monitorapi.ParseVerdict(f.Verdict); err == nil {
			s.verdict = v
		}
	case monitorapi.FrameGauge:
		if s.onGauge != nil && f.Gauge != nil {
			s.onGauge(*f.Gauge)
		}
	case monitorapi.FrameStats:
		s.stats = f.Stats
		if v, err := monitorapi.ParseVerdict(f.Verdict); err == nil {
			s.verdict = v
		}
	case monitorapi.FrameOverload, monitorapi.FrameError:
		return s.terminal(fmt.Errorf("server closed session: %s", f.Err))
	default:
		return fmt.Errorf("unexpected server frame %q", f.Type)
	}
	return nil
}

// errTerminal marks server-initiated session errors: the server rejected the
// session's behaviour, so redialing would only repeat the rejection.
type terminalError struct{ err error }

func (e terminalError) Error() string { return e.err.Error() }
func (e terminalError) Unwrap() error { return e.err }

func (s *Session) terminal(err error) error { return terminalError{err} }

// withRetry runs op, redialing and retrying on connection errors when
// reconnect is enabled. Terminal (server-rejection) errors never retry.
func (s *Session) withRetry(op func() error) error {
	err := op()
	for attempt := 0; err != nil && attempt < s.reconnects; attempt++ {
		var term terminalError
		if errors.As(err, &term) {
			break
		}
		s.hangup()
		if s.redialDelay > 0 {
			time.Sleep(s.redialDelay)
		}
		if cerr := s.connect(); cerr != nil {
			err = cerr
			continue
		}
		err = op()
	}
	if err != nil {
		return s.fail(err)
	}
	return nil
}

// fail latches a session-fatal error.
func (s *Session) fail(err error) error {
	s.err = err
	s.hangup()
	return err
}
