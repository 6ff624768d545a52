// Package check decides whether a finite history is linearizable with respect
// to a sequential specification — the predicate P_O that the paper (§3)
// assumes every process can test locally. The core algorithm is the
// Wing–Gong linearizability search with Lowe's just-in-time pruning and
// memoisation; fast polynomial monitors for specific objects (cf. the paper's
// citations [15, 32]) are layered on top as sound pre-filters.
package check

import (
	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/stateset"
)

// LinOp is one element of a linearization witness.
type LinOp struct {
	Proc int
	ID   uint64
	Op   spec.Operation
	Res  spec.Response
	// Pending is true if the operation was pending in the checked history and
	// the checker chose Res for it (Definition 4.2 allows appending responses
	// to pending operations).
	Pending bool
}

// Result is the outcome of a linearizability check.
type Result struct {
	Ok bool
	// Linearization is a witness sequential history when Ok. Pending
	// operations that were not linearized are omitted (their invocations are
	// removed, as comp(E') prescribes).
	Linearization []LinOp
	// States explored, for diagnostics and benchmarks.
	Explored int
}

// node is an entry of the doubly linked candidate list: one node per event.
type node struct {
	prev, next *node
	opIdx      int
	isCall     bool
	used       bool  // backing-array construction: slot belongs to a known op
	match      *node // call -> its return node (nil if pending); ret -> call
	linPos     int   // segSearch: stack index that linearized this call; -1 if none
	lifted     bool  // segSearch: node currently removed from the candidate list
}

// buildCandidates links a candidate list over h's events out of one backing
// array — buf's storage when it is large enough, else one allocation for the
// lot instead of one per event — using the Inv/Ret indexes Ops computed
// instead of re-mapping event ids. The head sentinel is the array's last
// element; the array is returned for reuse. Events of unknown operations
// (ill-formed input, which Ops tolerates) are skipped, as the map-based
// construction effectively did.
func buildCandidates(buf []node, h history.History, ops []history.Op) (head *node, backing []node) {
	if cap(buf) <= len(h) {
		backing = make([]node, len(h)+1)
	} else {
		backing = buf[:len(h)+1]
		clear(backing)
	}
	for i := range ops {
		o := &ops[i]
		c := &backing[o.InvIdx]
		c.opIdx, c.isCall, c.used = i, true, true
		if o.Complete {
			r := &backing[o.RetIdx]
			r.opIdx, r.match, r.used = i, c, true
			c.match = r
		}
	}
	head = &backing[len(h)]
	prev := head
	for i := range backing[:len(h)] {
		n := &backing[i]
		if !n.used {
			continue
		}
		n.prev = prev
		prev.next = n
		prev = n
	}
	return head, backing
}

func (n *node) lift() {
	n.prev.next = n.next
	if n.next != nil {
		n.next.prev = n.prev
	}
	if n.match != nil {
		n.match.prev.next = n.match.next
		if n.match.next != nil {
			n.match.next.prev = n.match.prev
		}
	}
}

func (n *node) unlift() {
	// Reinsert in reverse order of removal.
	if n.match != nil {
		n.match.prev.next = n.match
		if n.match.next != nil {
			n.match.next.prev = n.match
		}
	}
	n.prev.next = n
	if n.next != nil {
		n.next.prev = n
	}
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// sized returns an all-zero bitset for n bits, in b's storage when it fits.
func (b bitset) sized(n int) bitset {
	words := (n + 63) / 64
	if cap(b) < words {
		return make(bitset, words)
	}
	b = b[:words]
	clear(b)
	return b
}

func (b bitset) set(i int)   { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int) { b[i/64] &^= 1 << (i % 64) }

// Linearizable decides whether h is linearizable with respect to m
// (Definition 4.2). h must be well-formed; callers can verify with Validate.
func Linearizable(m spec.Model, h history.History) Result {
	ops := h.Ops()
	if len(ops) == 0 {
		return Result{Ok: true}
	}

	// Build the candidate list in event order.
	head, _ := buildCandidates(nil, h, ops)

	completeRemaining := 0
	for _, o := range ops {
		if o.Complete {
			completeRemaining++
		}
	}

	type frame struct {
		n    *node
		prev spec.State
		res  spec.Response
	}
	state := m.Init()
	bs := newBitset(len(ops))
	in := stateset.NewInternerHint(len(ops))
	memo := stateset.NewMemoSetHint(len(bs), 2*len(ops))
	stack := make([]frame, 0, len(ops))
	explored := 0

	success := func() Result {
		lin := make([]LinOp, len(stack))
		for i, f := range stack {
			o := ops[f.n.opIdx]
			lin[i] = LinOp{Proc: o.Proc, ID: o.ID, Op: o.Op, Res: f.res, Pending: !o.Complete}
		}
		return Result{Ok: true, Linearization: lin, Explored: explored}
	}

	entry := head.next
	for {
		if completeRemaining == 0 {
			return success()
		}
		if entry != nil && entry.isCall {
			o := ops[entry.opIdx]
			next, res, ok := state.Apply(o.Op)
			if ok && o.Complete && res != o.Res {
				ok = false
			}
			if ok {
				bs.set(entry.opIdx)
				id, _ := in.Intern(next)
				if memo.Insert(bs, id) {
					explored++
					stack = append(stack, frame{n: entry, prev: state, res: res})
					entry.lift()
					if o.Complete {
						completeRemaining--
					}
					state = next
					entry = head.next
					continue
				}
				bs.clear(entry.opIdx)
			}
			entry = entry.next
			continue
		}
		// entry is nil or a return node: no candidate worked, backtrack.
		if len(stack) == 0 {
			return Result{Ok: false, Explored: explored}
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f.n.unlift()
		if ops[f.n.opIdx].Complete {
			completeRemaining++
		}
		bs.clear(f.n.opIdx)
		state = f.prev
		entry = f.n.next
	}
}

// IsLinearizable is a convenience wrapper returning only the verdict.
func IsLinearizable(m spec.Model, h history.History) bool {
	return Linearizable(m, h).Ok
}

// FirstViolation returns the length (in events) of the shortest prefix of h
// that is not linearizable with respect to m, or -1 if h is linearizable.
// Linearizability is prefix-closed (Lemma 7.1), so the predicate "prefix of
// length k is non-linearizable" is monotone in k and binary search applies.
func FirstViolation(m spec.Model, h history.History) int {
	if IsLinearizable(m, h) {
		return -1
	}
	lo, hi := 1, len(h) // invariant: h[:hi] non-linearizable
	for lo < hi {
		mid := (lo + hi) / 2
		if IsLinearizable(m, h[:mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ReplaySequential checks that a proposed sequential order of operations is
// legal for the model, reproduces exactly the responses observed in h for
// every complete operation, and respects the real-time order of h. It is the
// verifier that makes fast monitors sound by construction: it never trusts
// the responses claimed in lin, only those recorded in h.
func ReplaySequential(m spec.Model, h history.History, lin []LinOp) bool {
	observed := make(map[uint64]history.Op, len(lin))
	for _, o := range h.Ops() {
		observed[o.ID] = o
	}
	// Model legality against the observed responses.
	st := m.Init()
	linearized := make(map[uint64]bool, len(lin))
	for _, l := range lin {
		o, known := observed[l.ID]
		if !known || o.Op != l.Op {
			return false
		}
		next, res, ok := st.Apply(o.Op)
		if !ok {
			return false
		}
		if o.Complete && res != o.Res {
			return false
		}
		if linearized[l.ID] {
			return false
		}
		linearized[l.ID] = true
		st = next
	}
	// Every complete operation of h must be linearized.
	for _, o := range h.Ops() {
		if o.Complete && !linearized[o.ID] {
			return false
		}
	}
	// Real-time order: <_h ⊆ lin order. A pair (i earlier than j in lin)
	// violates real time iff j returned before i was invoked, i.e. iff some
	// operation's return index is smaller than the largest invocation index
	// seen earlier in lin — an O(k) scan instead of materialising <_h.
	maxInvSoFar := -1
	for _, l := range lin {
		o := observed[l.ID]
		if o.Complete && o.RetIdx < maxInvSoFar {
			return false
		}
		if o.InvIdx > maxInvSoFar {
			maxInvSoFar = o.InvIdx
		}
	}
	return true
}
