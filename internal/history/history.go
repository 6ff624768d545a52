// Package history implements the paper's model of histories (§2, §4): finite
// sequences of invocations and responses of high-level operations, with the
// two well-formedness properties of §2, the real-time partial orders <_E
// (Definition 4.2 context) and ≺_E (§7.1), comp(E), extensions, equivalence,
// and the similarity relation of Definition 7.1 on which GenLin (Definition
// 7.2) is built.
//
// A History is the paper's "execution without steps": base-object steps of an
// implementation are not represented, only the invocations and responses it
// exchanges with its caller.
package history

import (
	"fmt"
	"strings"
	"unsafe"

	"repro/internal/spec"
)

// Kind discriminates invocation events from response events.
type Kind uint8

const (
	// Invoke is an invocation event inv_i(op).
	Invoke Kind = iota + 1
	// Return is a response event res_i(op).
	Return
)

// Event is a single invocation or response in a history. Events of one
// operation are paired by ID, which must be unique per operation within a
// history (the paper guarantees this by assuming each op input is used once).
type Event struct {
	Kind Kind
	Proc int            // index of the process, 0-based
	ID   uint64         // pairs an operation's Invoke and Return
	Op   spec.Operation // set on both events of an operation
	Res  spec.Response  // meaningful only when Kind == Return
}

// History is a finite sequence of events, ordered by real time.
type History []Event

// EventBytes is the in-memory size of one Event, for retained-bytes
// accounting in bounded-memory monitors.
var EventBytes = int64(unsafe.Sizeof(Event{}))

// Op is one operation of a history, with the positions of its events.
// RetIdx is -1 for a pending operation.
type Op struct {
	Proc     int
	ID       uint64
	Op       spec.Operation
	Res      spec.Response // zero if pending
	InvIdx   int
	RetIdx   int
	Complete bool
}

// Validate checks the well-formedness conditions of §2: every process is
// sequential (it invokes a new operation only after its previous one
// responded), every response matches a preceding invocation of the same
// process, and operation IDs are unique.
func (h History) Validate() error {
	type open struct {
		id  uint64
		idx int
	}
	pending := make(map[int]open) // proc -> open invocation
	seen := make(map[uint64]bool, len(h)/2)
	for i, e := range h {
		switch e.Kind {
		case Invoke:
			if p, ok := pending[e.Proc]; ok {
				return fmt.Errorf("event %d: process %d invokes op %d while op %d is pending (invoked at %d)",
					i, e.Proc, e.ID, p.id, p.idx)
			}
			if seen[e.ID] {
				return fmt.Errorf("event %d: duplicate operation id %d", i, e.ID)
			}
			seen[e.ID] = true
			pending[e.Proc] = open{id: e.ID, idx: i}
		case Return:
			p, ok := pending[e.Proc]
			if !ok {
				return fmt.Errorf("event %d: process %d responds to op %d with no pending invocation", i, e.Proc, e.ID)
			}
			if p.id != e.ID {
				return fmt.Errorf("event %d: process %d responds to op %d but op %d is pending", i, e.Proc, e.ID, p.id)
			}
			delete(pending, e.Proc)
		default:
			return fmt.Errorf("event %d: invalid kind %d", i, e.Kind)
		}
	}
	return nil
}

// Ops returns the operations of h in invocation order.
//
// The fast path matches a Return to the open invocation of its process via a
// small per-proc table — no map, which matters because the linearizability
// checker calls Ops on every decision. Irregularities it can see locally
// (out-of-range procs, an invoke over an open op, a return whose proc has no
// matching open op) fall back to the tolerant by-ID matching. One class of
// §2-ill-formed input the fast path cannot detect — the same ID invoked by
// two different processes — is matched per proc here, where by-ID matching
// attached returns to the latest invoke of that ID; such histories are
// rejected by Validate (and by the monitors' admitters) before any
// Ops-based checking, so only callers feeding unvalidated ill-formed input
// can observe the difference.
func (h History) Ops() []Op { return h.OpsInto(make([]Op, 0, len(h)/2+1)) }

// OpsInto is Ops building the list in buf's storage (from buf[:0], growing it
// if needed), for callers that extract operations on a hot path and own a
// reusable buffer. The result aliases buf unless h is ill-formed.
func (h History) OpsInto(buf []Op) []Op {
	const maxFastProc = 256
	openByProc := [maxFastProc]int32{} // proc -> index+1 into ops; 0 = none
	ops := buf[:0]
	for i, e := range h {
		switch e.Kind {
		case Invoke:
			if e.Proc < 0 || e.Proc >= maxFastProc || openByProc[e.Proc] != 0 {
				return h.opsByID()
			}
			openByProc[e.Proc] = int32(len(ops)) + 1
			ops = append(ops, Op{Proc: e.Proc, ID: e.ID, Op: e.Op, InvIdx: i, RetIdx: -1})
		case Return:
			if e.Proc < 0 || e.Proc >= maxFastProc {
				return h.opsByID()
			}
			j := openByProc[e.Proc]
			if j == 0 || ops[j-1].ID != e.ID {
				return h.opsByID()
			}
			ops[j-1].RetIdx = i
			ops[j-1].Res = e.Res
			ops[j-1].Complete = true
			openByProc[e.Proc] = 0
		}
	}
	return ops
}

// opsByID is the tolerant slow path of Ops: operations match purely by ID,
// so ill-formed histories still produce the same Op list they always did.
func (h History) opsByID() []Op {
	byID := make(map[uint64]int, len(h)/2+1) // id -> index into ops
	ops := make([]Op, 0, len(h)/2+1)
	for i, e := range h {
		switch e.Kind {
		case Invoke:
			byID[e.ID] = len(ops)
			ops = append(ops, Op{Proc: e.Proc, ID: e.ID, Op: e.Op, InvIdx: i, RetIdx: -1})
		case Return:
			j, ok := byID[e.ID]
			if !ok {
				continue // tolerate malformed input; Validate reports it
			}
			ops[j].RetIdx = i
			ops[j].Res = e.Res
			ops[j].Complete = true
		}
	}
	return ops
}

// Complete returns comp(h): h with the invocations of pending operations
// removed (§4).
func (h History) Complete() History {
	completed := make(map[uint64]bool, len(h)/2)
	for _, e := range h {
		if e.Kind == Return {
			completed[e.ID] = true
		}
	}
	out := make(History, 0, len(h))
	for _, e := range h {
		if e.Kind == Invoke && !completed[e.ID] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Pending returns the pending operations of h, at most one per process.
func (h History) Pending() []Op {
	var out []Op
	for _, o := range h.Ops() {
		if !o.Complete {
			out = append(out, o)
		}
	}
	return out
}

// Extend returns an extension of h (§4): h with the given responses appended,
// in order. Each response must complete a pending operation of h; Extend
// returns an error otherwise.
func (h History) Extend(responses []Event) (History, error) {
	out := make(History, len(h), len(h)+len(responses))
	copy(out, h)
	for _, r := range responses {
		if r.Kind != Return {
			return nil, fmt.Errorf("extension event for op %d is not a response", r.ID)
		}
		out = append(out, r)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("not an extension: %w", err)
	}
	return out, nil
}

// ByProc returns the subsequence h|p of events of process p.
func (h History) ByProc(p int) History {
	var out History
	for _, e := range h {
		if e.Proc == p {
			out = append(out, e)
		}
	}
	return out
}

// Procs returns the sorted list of process indices appearing in h.
func (h History) Procs() []int {
	seen := make(map[int]bool)
	max := -1
	for _, e := range h {
		seen[e.Proc] = true
		if e.Proc > max {
			max = e.Proc
		}
	}
	out := make([]int, 0, len(seen))
	for p := 0; p <= max; p++ {
		if seen[p] {
			out = append(out, p)
		}
	}
	return out
}

// eventSig is an event stripped of its position and internal ID, used for
// equivalence comparisons: equivalence (§4) is about the contents of the
// per-process sequences of invocations and responses.
type eventSig struct {
	Kind Kind
	Op   spec.Operation
	Res  spec.Response
}

func sig(e Event) eventSig {
	s := eventSig{Kind: e.Kind, Op: e.Op}
	if e.Kind == Return {
		s.Res = e.Res
	}
	return s
}

// Equivalent reports whether h and g are equivalent (§4): h|p = g|p for every
// process p, comparing the invocation/response contents.
func Equivalent(h, g History) bool {
	byProcH := make(map[int][]eventSig)
	byProcG := make(map[int][]eventSig)
	for _, e := range h {
		byProcH[e.Proc] = append(byProcH[e.Proc], sig(e))
	}
	for _, e := range g {
		byProcG[e.Proc] = append(byProcG[e.Proc], sig(e))
	}
	if len(byProcH) != len(byProcG) {
		return false
	}
	for p, hs := range byProcH {
		gs, ok := byProcG[p]
		if !ok || len(hs) != len(gs) {
			return false
		}
		for i := range hs {
			if hs[i] != gs[i] {
				return false
			}
		}
	}
	return true
}

// Sequential reports whether h is sequential: <_h is a total order on its
// complete operations and no operation overlaps another (every invocation is
// immediately followed by its response).
func (h History) Sequential() bool {
	for i := 0; i+1 < len(h); i += 2 {
		if h[i].Kind != Invoke || h[i+1].Kind != Return || h[i].ID != h[i+1].ID {
			return false
		}
	}
	return len(h)%2 == 0
}

// Pair is an ordered pair of operation IDs related by a precedence relation.
type Pair struct{ Before, After uint64 }

// PrecedenceLt returns <_h: op < op' iff res(op) precedes inv(op') in h, over
// complete operations only (§4).
func (h History) PrecedenceLt() map[Pair]bool {
	return h.precedence(true)
}

// PrecedencePrec returns ≺_h (§7.1): like <_h but op' may be pending.
func (h History) PrecedencePrec() map[Pair]bool {
	return h.precedence(false)
}

func (h History) precedence(completeOnly bool) map[Pair]bool {
	ops := h.Ops()
	rel := make(map[Pair]bool)
	for _, a := range ops {
		if !a.Complete {
			continue // a pending op precedes nothing
		}
		for _, b := range ops {
			if a.ID == b.ID {
				continue
			}
			if completeOnly && !b.Complete {
				continue
			}
			if a.RetIdx < b.InvIdx {
				rel[Pair{a.ID, b.ID}] = true
			}
		}
	}
	return rel
}

// opKey identifies an operation by its contents rather than its internal ID,
// so precedence relations can be compared across histories whose IDs differ.
type opKey struct {
	Proc int
	Op   spec.Operation
}

// precedenceByKey returns ≺_h keyed by operation contents.
func precedenceByKey(h History) map[[2]opKey]bool {
	ops := h.Ops()
	rel := make(map[[2]opKey]bool)
	for _, a := range ops {
		if !a.Complete {
			continue
		}
		for _, b := range ops {
			if a.ID == b.ID {
				continue
			}
			if a.RetIdx < b.InvIdx {
				rel[[2]opKey{{a.Proc, a.Op}, {b.Proc, b.Op}}] = true
			}
		}
	}
	return rel
}

// Similar reports whether h is similar to g (Definition 7.1): there is a
// history h' obtained from h by appending responses to some pending
// operations and removing the invocations of some other pending operations,
// such that h' and g are equivalent and ≺_{h'} ⊆ ≺_g.
//
// Because processes are sequential, each process has at most one pending
// operation in h, and g determines the only possible choice for it: complete
// it with g's response for that operation, drop it if g lacks it, or keep it
// pending if g has it pending. Appended responses land at the end of h', so
// they add nothing to ≺_{h'}.
func Similar(h, g History) bool {
	hp := h.Procs()
	gp := g.Procs()

	// Build h' per process and verify equivalence with g as we go.
	gByProc := make(map[int][]eventSig)
	for _, e := range g {
		gByProc[e.Proc] = append(gByProc[e.Proc], sig(e))
	}
	hPrime := make(History, 0, len(h)+len(gp))
	var appended []Event // responses appended at the end of h'
	drop := make(map[uint64]bool)

	for _, p := range hp {
		he := h.ByProc(p)
		ge := gByProc[p]
		// Determine the fate of p's trailing pending op, if any.
		n := len(he)
		if n > 0 && he[n-1].Kind == Invoke {
			switch {
			case len(ge) == n-1:
				// g lacks the pending op entirely: drop its invocation.
				drop[he[n-1].ID] = true
				he = he[:n-1]
			case len(ge) == n:
				// g has it pending too: keep as is; contents must match.
			case len(ge) == n+1:
				// g completes it: append g's response at the end of h'.
				last := ge[n]
				if last.Kind != Return || last.Op != he[n-1].Op {
					return false
				}
				appended = append(appended, Event{
					Kind: Return, Proc: p, ID: he[n-1].ID, Op: last.Op, Res: last.Res,
				})
			default:
				return false
			}
		}
		// After the adjustment, contents must match g|p exactly, except for
		// the appended response which is accounted separately.
		want := ge
		if len(appended) > 0 && len(ge) == len(he)+1 {
			want = ge[:len(he)]
		}
		if len(he) != len(want) {
			return false
		}
		for i := range he {
			if sig(he[i]) != want[i] {
				return false
			}
		}
	}
	// Every process of g must appear in h (with the same contents), otherwise
	// the histories cannot be equivalent.
	hProcSet := make(map[int]bool, len(hp))
	for _, p := range hp {
		hProcSet[p] = true
	}
	for _, p := range gp {
		if !hProcSet[p] {
			return false
		}
	}

	for _, e := range h {
		if drop[e.ID] {
			continue
		}
		hPrime = append(hPrime, e)
	}
	hPrime = append(hPrime, appended...)

	if !Equivalent(hPrime, g) {
		return false
	}
	// ≺_{h'} ⊆ ≺_g, comparing operations by contents.
	relH := precedenceByKey(hPrime)
	relG := precedenceByKey(g)
	for pr := range relH {
		if !relG[pr] {
			return false
		}
	}
	return true
}

// String renders the history one event per line.
func (h History) String() string {
	var b strings.Builder
	for i, e := range h {
		if e.Kind == Invoke {
			fmt.Fprintf(&b, "%3d  p%d  inv %s\n", i, e.Proc+1, e.Op)
		} else {
			fmt.Fprintf(&b, "%3d  p%d  res %s : %s\n", i, e.Proc+1, e.Op, e.Res)
		}
	}
	return b.String()
}

// Render draws the history as per-process lanes with double-ended intervals,
// in the style of the paper's figures. Pending operations are drawn with an
// open right end.
func (h History) Render() string {
	procs := h.Procs()
	if len(procs) == 0 {
		return "(empty history)\n"
	}
	width := len(h)
	var b strings.Builder
	for _, p := range procs {
		lane := make([]rune, 2*width)
		for i := range lane {
			lane[i] = ' '
		}
		labels := make(map[int]string)
		for _, o := range h.Ops() {
			if o.Proc != p {
				continue
			}
			start := 2 * o.InvIdx
			end := 2*width - 1
			open := true
			if o.Complete {
				end = 2 * o.RetIdx
				open = false
			}
			lane[start] = '|'
			for i := start + 1; i < end; i++ {
				lane[i] = '-'
			}
			if open {
				lane[end] = '-'
			} else {
				lane[end] = '|'
			}
			lbl := o.Op.String()
			if o.Complete {
				lbl += ":" + o.Res.String()
			}
			labels[start] = lbl
		}
		fmt.Fprintf(&b, "p%-2d %s\n", p+1, string(lane))
		// Label line.
		label := make([]rune, 0, 2*width)
		col := 0
		for i := 0; i < 2*width; i++ {
			if lbl, ok := labels[i]; ok && i >= col {
				for len(label) < i {
					label = append(label, ' ')
				}
				label = append(label, []rune(lbl)...)
				col = i + len(lbl)
			}
		}
		if len(label) > 0 {
			fmt.Fprintf(&b, "    %s\n", string(label))
		}
	}
	return b.String()
}
