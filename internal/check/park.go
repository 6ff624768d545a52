package check

import (
	"encoding/binary"
	"slices"

	"repro/internal/history"
	"repro/internal/spec"
)

// Park shrinks an idle monitor to what a checkpoint image holds: the monitor
// afterwards behaves exactly like RestoreIncremental(inc.Checkpoint()) — same
// verdicts and the same IncStats under every future Append — and its image is
// unchanged. What it drops is what restore rebuilds:
//
//   - the persistent segment searches, whose arenas go back to the pool (a
//     Shards' shared one); the next segment check rebuilds each search over
//     the current segment, as after a restore;
//   - pendingOp and seenIDs, which the next non-empty Append re-derives from
//     the window (ensureOpenOps);
//   - the spare capacity of the quiescent-boundary queue.
//
// What it keeps, it keeps as bytes (parkedMonitor): the window as one
// pointer-free varint buffer, about 8 B per event where a history.Event
// takes 72 and holds a string pointer the collector scans, and the frontier
// and GC base states as spec.EncodeState strings, so the state chains the
// searches grew from them, with their arena chunks and successor caches,
// become garbage.
//
// Park needs what Checkpoint needs: a model spec.ByName rebuilds, whose
// states have a codec. It leaves any other monitor as it is.
//
// A parked monitor unpacks on the first call that changes it: a non-empty
// Append (including one answered by a sticky No that keeps the events) or a
// ReloadWindow. Reads do not unpack: History decodes a fresh copy of the
// window, Checkpoint encodes from the parked form and FrontierSize counts the
// parked states, so checkpointing a parked monitor leaves it parked. Park on
// a parked monitor is a no-op.
//
// The monitoring service parks an object's monitor when its session says
// bye, and when a session that dropped its connection leaves the object
// settled. The object is not ended — a reopen appends to it as before.
func (inc *Incremental) Park() {
	if _, ok := spec.ByName(inc.model.Name()); !ok || inc.parked != nil {
		return
	}
	inc.releaseSearches()
	clear(inc.searches)
	inc.pendingOp, inc.seenIDs = nil, nil
	p := &parkedMonitor{window: packEvents(inc.h), events: len(inc.h)}
	inc.cuts = slices.Clone(inc.cuts)
	p.frontier = encodeStates(inc.frontier)
	if inc.base != nil {
		p.base = encodeStates(inc.base)
	}
	inc.h, inc.frontier, inc.base = nil, nil, nil
	inc.parked = p
}

// parkedMonitor is what a parked monitor keeps of its window and states.
type parkedMonitor struct {
	window   []byte   // the window's events, packed by packEvents
	events   int      // events in window
	frontier []string // encoded frontier states
	base     []string // encoded GC base states; nil when there is no base
}

// unpark restores the window and states of a parked monitor. The encodings
// came from the monitor's own states and events, so a failure to decode them
// is a broken invariant, not bad input.
func (inc *Incremental) unpark() {
	p := inc.parked
	if p == nil {
		return
	}
	inc.parked = nil
	inc.h = unpackEvents(p.window, p.events)
	var err error
	if inc.frontier, err = decodeStates(inc.model, p.frontier); err != nil {
		panic("check: parked frontier fails to decode: " + err.Error())
	}
	if p.base != nil {
		if inc.base, err = decodeStates(inc.model, p.base); err != nil {
			panic("check: parked base fails to decode: " + err.Error())
		}
	}
}

// ensureOpenOps rebuilds pendingOp and seenIDs after Park. The window of a
// Yes monitor is well-formed by construction (admit accepted every event of
// it), so a replay conflict here is a broken invariant, not bad input.
func (inc *Incremental) ensureOpenOps() {
	if inc.pendingOp != nil {
		return
	}
	if err := inc.deriveOpenOps(); err != nil {
		panic("check: parked window fails replay: " + err.Error())
	}
}

// parkMethods are the method names a packed event stores as a one-byte code,
// i+1 for parkMethods[i]. Code 0 is followed by the name itself, for methods
// outside spec's constants. The packed form never leaves the process, so the
// list may change freely.
var parkMethods = [...]string{
	"",
	spec.MethodEnq, spec.MethodDeq,
	spec.MethodPush, spec.MethodPop,
	spec.MethodAdd, spec.MethodRemove, spec.MethodContains,
	spec.MethodInsert, spec.MethodMin,
	spec.MethodInc, spec.MethodRead, spec.MethodWrite,
	spec.MethodDecide, spec.MethodWriteScan,
}

// packEvents encodes h, every field exactly, as one varint buffer. Per
// event: Kind, Proc, ID as a delta from the previous event's ID (wrapping,
// so ids near 2^64 stay short), the method code, Arg, Uniq relative to ID,
// the response kind and value. Signed fields are zigzag varints.
func packEvents(h history.History) []byte {
	if len(h) == 0 {
		return nil
	}
	buf := make([]byte, 0, 12*len(h))
	var prev uint64
	for _, e := range h {
		buf = binary.AppendUvarint(buf, uint64(e.Kind))
		buf = binary.AppendVarint(buf, int64(e.Proc))
		buf = binary.AppendVarint(buf, int64(e.ID-prev))
		prev = e.ID
		if i := slices.Index(parkMethods[:], e.Op.Method); i >= 0 {
			buf = append(buf, byte(i+1))
		} else {
			buf = append(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(len(e.Op.Method)))
			buf = append(buf, e.Op.Method...)
		}
		buf = binary.AppendVarint(buf, e.Op.Arg)
		buf = binary.AppendVarint(buf, int64(e.Op.Uniq-e.ID))
		buf = binary.AppendUvarint(buf, uint64(e.Res.Kind))
		buf = binary.AppendVarint(buf, e.Res.Val)
	}
	return slices.Clone(buf) // exact size: the estimate's slack would stay parked too
}

// unpackEvents decodes the n events packEvents wrote into buf.
func unpackEvents(buf []byte, n int) history.History {
	if n == 0 {
		return nil
	}
	r := packedReader{buf: buf}
	h := make(history.History, n)
	var prev uint64
	for i := range h {
		e := &h[i]
		e.Kind = history.Kind(r.uvarint())
		e.Proc = int(r.varint())
		e.ID = prev + uint64(r.varint())
		prev = e.ID
		if c := r.bytes(1)[0]; c > 0 {
			e.Op.Method = parkMethods[c-1]
		} else {
			e.Op.Method = string(r.bytes(int(r.uvarint())))
		}
		e.Op.Arg = r.varint()
		e.Op.Uniq = e.ID + uint64(r.varint())
		e.Res.Kind = spec.Kind(r.uvarint())
		e.Res.Val = r.varint()
	}
	return h
}

// packedReader reads a buffer packEvents wrote. The buffer never leaves the
// monitor, so running off its end is a bug.
type packedReader struct{ buf []byte }

func (r *packedReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		panic("check: corrupt parked window")
	}
	r.buf = r.buf[n:]
	return v
}

func (r *packedReader) varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		panic("check: corrupt parked window")
	}
	r.buf = r.buf[n:]
	return v
}

func (r *packedReader) bytes(n int) []byte {
	if n > len(r.buf) {
		panic("check: corrupt parked window")
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}
