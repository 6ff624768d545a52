package monitorapi

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/history"
)

// ProtocolVersion is the current version of the linmond wire protocol. A
// server rejects opens with a newer version; a client rejects hellos with a
// newer version. Framing is NDJSON: one JSON object per line, client frames
// one way, server frames the other, over a single TCP connection per session.
const ProtocolVersion = 1

// Client frame types.
const (
	// FrameOpen starts a session: it names the monitored object, its model
	// and the monitor configuration. First frame on every connection.
	FrameOpen = "open"
	// FrameEvents carries one batch of operation events for the session's
	// object, tagged with a per-object sequence number for exactly-once
	// application across reconnects.
	FrameEvents = "events"
	// FrameBye ends a session cleanly; the server flushes a final stats
	// frame before closing.
	FrameBye = "bye"
)

// Server frame types.
const (
	// FrameHello acknowledges an open: it confirms the protocol version,
	// reports the highest batch sequence already applied to the object
	// (non-zero on a resumed session) and the session's credit window.
	FrameHello = "hello"
	// FrameAck acknowledges an applied batch and carries the object's
	// verdict after it. Acks restore the client's send credit.
	FrameAck = "ack"
	// FrameGauge is a periodic resource report (retained window, frontier)
	// for the session's object. Informational; carries no credit.
	FrameGauge = "gauge"
	// FrameStats is the full monitor counter set, sent on bye.
	FrameStats = "stats"
	// FrameOverload tells a client it overran its credit window or the
	// server's ingest queue; the server closes the connection after it.
	FrameOverload = "overload"
	// FrameError reports a protocol or session error; the server closes
	// the connection after it.
	FrameError = "error"
)

// Open is the payload of a FrameOpen: which object to monitor, under which
// model and configuration. A session owns exactly one object's event stream —
// events of one object must arrive in program order, and a single stream is
// how the client vouches for that.
type Open struct {
	// Version is the client's protocol version (ProtocolVersion).
	Version int `json:"version"`
	// Tenant and Object key the monitor instance. Distinct tenants never
	// share monitors, verdicts or stats.
	Tenant string `json:"tenant"`
	Object string `json:"object"`
	// Model names the sequential specification (spec.ByName).
	Model string `json:"model"`
	// Config is the monitor configuration. On a resumed session it must
	// equal the object's existing configuration. The zero Config is the
	// library default.
	Config check.Config `json:"config,omitzero"`
	// Window requests a credit window (max unacked batches); 0 accepts the
	// server default. The server may grant less; hello reports the grant.
	Window int `json:"window,omitempty"`
	// Session, on a reconnect, is the hello.Session the client's previous
	// connection was granted. An open presenting the object's current
	// session token supersedes that connection — presumed dead, its teardown
	// not yet seen by the server — instead of being rejected as a second
	// concurrent session. 0 (a first open) never supersedes. Additive field.
	Session uint64 `json:"session,omitempty"`
}

// EventBatch is the payload of a FrameEvents: a contiguous slice of the
// object's event stream. Seq numbers batches 1,2,3,... per object; the server
// applies a batch exactly once (a batch at or below the applied sequence is
// acked without re-applying), which makes resend-after-reconnect safe.
type EventBatch struct {
	Seq    uint64              `json:"seq"`
	Events []history.WireEvent `json:"events"`
}

// ClientFrame is one client→server NDJSON line.
type ClientFrame struct {
	Type  string      `json:"type"`
	Open  *Open       `json:"open,omitempty"`
	Batch *EventBatch `json:"batch,omitempty"`
}

// Gauge is a resource snapshot of one object's monitor — the bounded-memory
// story of the service, observable per session.
type Gauge struct {
	RetainedEvents int   `json:"retained_events"`
	RetainedBytes  int64 `json:"retained_bytes"`
	FrontierStates int   `json:"frontier_states"`
}

// Stats wraps the monitor's full counter set for the final report.
type Stats struct {
	Check check.IncStats `json:"check"`
}

// ServerFrame is one server→client NDJSON line. Fields are populated by
// type: hello sets Version/Acked/Window; ack sets Seq/Verdict; gauge sets
// Seq/Gauge; stats sets Verdict/Stats; overload and error set Err.
type ServerFrame struct {
	Type    string `json:"type"`
	Version int    `json:"version,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Acked   uint64 `json:"acked,omitempty"`
	Window  int    `json:"window,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	Err     string `json:"err,omitempty"`
	Gauge   *Gauge `json:"gauge,omitempty"`
	Stats   *Stats `json:"stats,omitempty"`
	// Persist, on hello, tells the client the server checkpoints this object
	// durably: acked batches below Durable can never be asked for again, but
	// after a server restart Acked may regress to Durable, so a client that
	// wants to survive restarts must buffer acked batches until Durable
	// passes them (monitorclient does exactly that).
	Persist bool `json:"persist,omitempty"`
	// Durable, on hello and acks, is the highest batch sequence covered by a
	// durable checkpoint of the object. Always <= Acked; 0 when the server
	// does not persist (Persist false). Additive field: old clients ignore
	// it, old servers never set it — no protocol version bump.
	Durable uint64 `json:"durable,omitempty"`
	// Session, on hello, is a random nonzero token naming this attachment
	// of the object; a reconnect presents it in Open.Session. Additive
	// field: old clients ignore it, old servers never set it.
	Session uint64 `json:"session,omitempty"`
}

// VerdictString renders a check verdict for the wire.
func VerdictString(v check.Verdict) string { return v.String() }

// ParseVerdict is the inverse of VerdictString.
func ParseVerdict(s string) (check.Verdict, error) {
	switch s {
	case "Yes":
		return check.Yes, nil
	case "Maybe":
		return check.Maybe, nil
	case "No":
		return check.No, nil
	}
	return 0, fmt.Errorf("invalid verdict %q", s)
}
