package monitorapi

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/history"
	"repro/internal/spec"
)

// This file is the session protocol's per-batch codec: a hand-written
// scanner for the canonical events frame and an append-style encoder for
// server frames. Both have encoding/json as their reference: the scanner
// hands every line it does not recognise to json.Unmarshal, and the encoder
// produces json.Marshal's bytes (FuzzEventsFrame and FuzzServerFrameEncode
// hold them to it).

// DecodedFrame is one client frame as FrameDecoder.Decode returns it.
type DecodedFrame struct {
	ClientFrame
	// Events is the batch of an events frame converted as history.FromWire
	// converts Batch.Events, and EventsErr is FromWire's error when it
	// rejects them. Both are zero for other frames and for an events frame
	// without a batch.
	Events    history.History
	EventsErr error
}

// FrameDecoder decodes client frames, one NDJSON line each. The zero value is
// ready to use; a decoder serves one connection.
//
// The canonical events frame — {"type":"events","batch":{"seq":N,"events":[…]}}
// with JSON whitespace anywhere, the exact lowercase keys, plain in-range
// integers and strings without escapes — is scanned straight into Events
// with one allocation. Any other line goes through json.Unmarshal and
// history.FromWire, so a line yields the same frame, events and errors
// through either path.
type FrameDecoder struct {
	batch EventBatch // Batch of a scanned frame
}

// Decode decodes one line holding one client frame. The error is
// json.Unmarshal's, for a line that is not one well-typed JSON object. A
// Batch returned for a scanned frame is the decoder's own and valid until
// the next Decode.
func (d *FrameDecoder) Decode(line []byte) (DecodedFrame, error) {
	if f, ok := d.scan(line); ok {
		return f, nil
	}
	var f DecodedFrame
	if err := json.Unmarshal(line, &f.ClientFrame); err != nil {
		return DecodedFrame{}, err
	}
	if f.Type == FrameEvents && f.Batch != nil {
		f.Events, f.EventsErr = history.FromWire(f.Batch.Events)
	}
	return f, nil
}

// minEventLen is the length of the shortest event the scanner accepts,
// {"kind":"inv"}, plus its separating comma: it bounds the events a line
// can hold, so the scanner's one allocation is never much larger than the
// line.
const minEventLen = len(`{"kind":"inv"},`)

// scan is the fast path: it decodes a canonical events frame, or reports
// false for anything else.
func (d *FrameDecoder) scan(line []byte) (DecodedFrame, bool) {
	s := scanner{b: line}
	var h history.History
	var seq uint64
	var sawType, sawBatch bool
	if !s.next('{') {
		return DecodedFrame{}, false
	}
	for {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return DecodedFrame{}, false
		}
		switch string(key) {
		case "type":
			v, ok := s.str()
			if !ok || sawType || string(v) != FrameEvents {
				return DecodedFrame{}, false
			}
			sawType = true
		case "batch":
			if sawBatch {
				return DecodedFrame{}, false
			}
			if h, seq, ok = scanBatch(&s); !ok {
				return DecodedFrame{}, false
			}
			sawBatch = true
		default:
			return DecodedFrame{}, false
		}
		if s.next(',') {
			continue
		}
		if !s.next('}') {
			return DecodedFrame{}, false
		}
		break
	}
	if s.ws(); s.i != len(s.b) || !sawType || !sawBatch {
		return DecodedFrame{}, false
	}
	d.batch = EventBatch{Seq: seq}
	return DecodedFrame{ClientFrame: ClientFrame{Type: FrameEvents, Batch: &d.batch}, Events: h}, true
}

// scanBatch scans a batch object: its seq and its events. A missing key
// leaves its zero value, as in json.Unmarshal; FromWire turns no events into
// an empty, non-nil History.
func scanBatch(s *scanner) (history.History, uint64, bool) {
	var h history.History
	var seq uint64
	var sawSeq, sawEvents bool
	if !s.next('{') {
		return nil, 0, false
	}
	for {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return nil, 0, false
		}
		switch string(key) {
		case "seq":
			if sawSeq {
				return nil, 0, false
			}
			if seq, ok = s.uint(); !ok {
				return nil, 0, false
			}
			sawSeq = true
		case "events":
			if sawEvents {
				return nil, 0, false
			}
			rest := s.b[s.i:]
			h = make(history.History, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/minEventLen+1))
			if h, ok = scanEvents(s, h); !ok {
				return nil, 0, false
			}
			sawEvents = true
		default:
			return nil, 0, false
		}
		if s.next(',') {
			continue
		}
		if !s.next('}') {
			return nil, 0, false
		}
		if h == nil {
			h = history.History{}
		}
		return h, seq, true
	}
}

// scanEvents scans an events array onto h.
func scanEvents(s *scanner, h history.History) (history.History, bool) {
	if !s.next('[') {
		return nil, false
	}
	if s.next(']') {
		return h, true
	}
	var idx invIndex
	for {
		e, ok := scanEvent(s)
		if !ok {
			return nil, false
		}
		if e.Kind == history.Return {
			// FromWire: a ret takes the operation of the latest inv of its
			// id earlier in the same batch.
			if op, found := idx.lookup(h, e.ID); found {
				e.Op = op
			}
		} else {
			idx.add(len(h), e.ID)
		}
		h = append(h, e)
		if s.next(',') {
			continue
		}
		return h, s.next(']')
	}
}

// Event keys, as bits of the set of keys an event object has shown.
const (
	keyKind = 1 << iota
	keyProc
	keyID
	keyOp
	keyArg
	keyRes
	keyAt
)

// scanEvent scans one event object into the Event FromWire makes of it,
// before ret inheritance. It fails on anything FromWire would reject, so
// that the fallback reports FromWire's own error.
func scanEvent(s *scanner) (history.Event, bool) {
	var e history.Event
	var seen int
	var proc int64
	var res []byte
	if !s.next('{') {
		return e, false
	}
	for {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return e, false
		}
		var bit int
		switch string(key) {
		case "kind":
			bit = keyKind
			var v []byte
			if v, ok = s.str(); ok {
				switch string(v) {
				case "inv":
					e.Kind = history.Invoke
				case "ret":
					e.Kind = history.Return
				default:
					ok = false
				}
			}
		case "proc":
			bit = keyProc
			proc, ok = s.int()
			ok = ok && int64(int(proc)) == proc
		case "id":
			bit = keyID
			e.ID, ok = s.uint()
		case "op":
			bit = keyOp
			var v []byte
			if v, ok = s.str(); ok {
				e.Op.Method = internMethod(v)
			}
		case "arg":
			bit = keyArg
			e.Op.Arg, ok = s.int()
		case "res":
			bit = keyRes
			res, ok = s.str()
		case "at":
			bit = keyAt
			_, ok = s.int() // advisory; FromWire drops it
		default:
			return e, false
		}
		if !ok || seen&bit != 0 {
			return e, false
		}
		seen |= bit
		if s.next(',') {
			continue
		}
		if !s.next('}') {
			return e, false
		}
		break
	}
	if e.Kind == 0 {
		return e, false
	}
	e.Proc = int(proc) - 1
	e.Op.Uniq = e.ID
	if e.Kind == history.Return {
		var ok bool
		if e.Res, ok = parseResponse(res); !ok {
			return e, false
		}
	}
	return e, true
}

// backScan is how many events a ret looks back for its inv before the batch
// switches to a map: a ret's inv is usually a few events back, but a long
// batch of rets without invs must not cost quadratic time.
const backScan = 64

// invIndex finds the latest inv of an id in the batch being scanned.
type invIndex struct {
	at map[uint64]int // id -> index of its latest inv, once the batch is indexed
}

func (x *invIndex) lookup(h history.History, id uint64) (spec.Operation, bool) {
	if x.at == nil {
		stop := max(0, len(h)-backScan)
		for i := len(h) - 1; i >= stop; i-- {
			if h[i].Kind == history.Invoke && h[i].ID == id {
				return h[i].Op, true
			}
		}
		if stop == 0 {
			return spec.Operation{}, false
		}
		x.at = make(map[uint64]int)
		for i, e := range h {
			if e.Kind == history.Invoke {
				x.at[e.ID] = i
			}
		}
	}
	if i, ok := x.at[id]; ok {
		return h[i].Op, true
	}
	return spec.Operation{}, false
}

func (x *invIndex) add(i int, id uint64) {
	if x.at != nil {
		x.at[id] = i
	}
}

// internMethod returns the method name b spells, without allocating for the
// spec package's own names. Any other name allocates: a client cannot grow
// a table.
func internMethod(b []byte) string {
	switch string(b) {
	case spec.MethodEnq:
		return spec.MethodEnq
	case spec.MethodDeq:
		return spec.MethodDeq
	case spec.MethodPush:
		return spec.MethodPush
	case spec.MethodPop:
		return spec.MethodPop
	case spec.MethodAdd:
		return spec.MethodAdd
	case spec.MethodRemove:
		return spec.MethodRemove
	case spec.MethodContains:
		return spec.MethodContains
	case spec.MethodInsert:
		return spec.MethodInsert
	case spec.MethodMin:
		return spec.MethodMin
	case spec.MethodInc:
		return spec.MethodInc
	case spec.MethodRead:
		return spec.MethodRead
	case spec.MethodWrite:
		return spec.MethodWrite
	case spec.MethodDecide:
		return spec.MethodDecide
	case spec.MethodWriteScan:
		return spec.MethodWriteScan
	}
	return string(b)
}

// parseResponse is history.ParseResponse without allocation: "ok", "empty",
// "true", "false", or [+-]?[0-9]+ within int64, as strconv.ParseInt parses
// it in base 10.
func parseResponse(b []byte) (spec.Response, bool) {
	switch string(b) {
	case "ok":
		return spec.OKResp(), true
	case "empty":
		return spec.EmptyResp(), true
	case "true":
		return spec.BoolResp(true), true
	case "false":
		return spec.BoolResp(false), true
	}
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return spec.Response{}, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' || v > (1<<63)/10 {
			return spec.Response{}, false
		}
		v = v*10 + uint64(c-'0')
	}
	if neg {
		if v > 1<<63 {
			return spec.Response{}, false
		}
		return spec.ValueResp(int64(-v)), true
	}
	if v > math.MaxInt64 {
		return spec.Response{}, false
	}
	return spec.ValueResp(int64(v)), true
}

// scanner walks one line of JSON. Its methods skip leading whitespace and
// report false on anything outside the fast path's subset.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// next consumes c. Compact JSON, the common case, skips no whitespace.
func (s *scanner) next(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string of printable ASCII without escapes and returns its
// contents, aliasing the line.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// uint scans a JSON integer that fits a uint64.
func (s *scanner) uint() (uint64, bool) {
	s.ws()
	return s.digits()
}

// int scans a JSON integer that fits an int64.
func (s *scanner) int() (int64, bool) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	v, ok := s.digits()
	switch {
	case !ok:
		return 0, false
	case neg:
		return int64(-v), v <= 1<<63
	default:
		return int64(v), v <= math.MaxInt64
	}
}

// digits scans 0 or [1-9][0-9]* — JSON has no leading zeros — into a
// uint64, failing on overflow. A fraction or exponent is left for the
// caller's next token check to reject.
func (s *scanner) digits() (uint64, bool) {
	start := s.i
	var v uint64
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	n := s.i - start
	return v, n > 0 && (n == 1 || s.b[start] != '0')
}

// AppendServerFrame appends f's NDJSON line to dst: the bytes of
// json.Marshal(f) and a newline, which is what json.Encoder.Encode writes.
// Frames without Stats — hello, ack, gauge, overload, error — are encoded
// field by field without reflection; a stats frame goes through
// json.Marshal, whose error is the only one returned.
func AppendServerFrame(dst []byte, f ServerFrame) ([]byte, error) {
	if f.Stats != nil {
		b, err := json.Marshal(f)
		if err != nil {
			return dst, err
		}
		return append(append(dst, b...), '\n'), nil
	}
	// Field order and omitempty rules are ServerFrame's.
	dst = append(dst, `{"type":`...)
	dst = appendString(dst, f.Type)
	if f.Version != 0 {
		dst = strconv.AppendInt(append(dst, `,"version":`...), int64(f.Version), 10)
	}
	if f.Seq != 0 {
		dst = strconv.AppendUint(append(dst, `,"seq":`...), f.Seq, 10)
	}
	if f.Acked != 0 {
		dst = strconv.AppendUint(append(dst, `,"acked":`...), f.Acked, 10)
	}
	if f.Window != 0 {
		dst = strconv.AppendInt(append(dst, `,"window":`...), int64(f.Window), 10)
	}
	if f.Verdict != "" {
		dst = appendString(append(dst, `,"verdict":`...), f.Verdict)
	}
	if f.Err != "" {
		dst = appendString(append(dst, `,"err":`...), f.Err)
	}
	if g := f.Gauge; g != nil {
		dst = strconv.AppendInt(append(dst, `,"gauge":{"retained_events":`...), int64(g.RetainedEvents), 10)
		dst = strconv.AppendInt(append(dst, `,"retained_bytes":`...), g.RetainedBytes, 10)
		dst = strconv.AppendInt(append(dst, `,"frontier_states":`...), int64(g.FrontierStates), 10)
		dst = append(dst, '}')
	}
	if f.Persist {
		dst = append(dst, `,"persist":true`...)
	}
	if f.Durable != 0 {
		dst = strconv.AppendUint(append(dst, `,"durable":`...), f.Durable, 10)
	}
	if f.Session != 0 {
		dst = strconv.AppendUint(append(dst, `,"session":`...), f.Session, 10)
	}
	return append(dst, "}\n"...), nil
}

// appendString appends s as a JSON string. Printable ASCII other than the
// quote, the backslash and the HTML characters encoding/json escapes is
// copied as is; any other string is left to json.Marshal, whose escaping
// (control characters, HTML, invalid UTF-8, U+2028/U+2029) is the reference.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
