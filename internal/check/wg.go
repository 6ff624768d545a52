// Package check decides whether a finite history is linearizable with respect
// to a sequential specification — the predicate P_O that the paper (§3)
// assumes every process can test locally. The core algorithm is the
// Wing–Gong linearizability search with Lowe's just-in-time pruning and
// memoisation; fast polynomial monitors for specific objects (cf. the paper's
// citations [15, 32]) are layered on top as sound pre-filters.
package check

import (
	"sync"

	"repro/internal/history"
	"repro/internal/spec"
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
	// Configurations explored, for diagnostics and benchmarks. Memoisation
	// starts at the first backtrack: a history linearized greedily counts
	// one configuration per linearized operation, and a configuration
	// explored before the first backtrack is not remembered, so it may be
	// explored and counted again after it.
	Explored int
}

// node is an entry of segSearch's doubly linked candidate list: one node per
// event, allocated from the search's arena.
type node struct {
	prev, next *node
	opIdx      int
	isCall     bool
	match      *node // call -> its return node (nil if pending); ret -> call
	linPos     int   // call: stack index that linearized it; -1 if none
	lifted     bool  // node currently removed from the candidate list
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

func (b bitset) set(i int)   { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int) { b[i/64] &^= 1 << (i % 64) }

// oneShotArenas recycles Linearizable's arenas. A one-shot check has no
// monitor to own an arenaPool, and a sync.Pool lets the collector reclaim the
// arenas of a burst of checks once it is over.
var oneShotArenas = sync.Pool{New: func() any { return newSearchArena() }}

// Linearizable decides whether h is linearizable with respect to m
// (Definition 4.2): one fresh first-witness run of the package's search
// (segSearch). h must be well-formed; callers can verify with Validate.
func Linearizable(m spec.Model, h history.History) Result {
	ar := oneShotArenas.Get().(*searchArena)
	defer func() {
		ar.reset()
		oneShotArenas.Put(ar)
	}()
	s := newSegSearch(m.Init(), ar)
	s.load(h)
	if len(s.ar.ops) == 0 {
		return Result{Ok: true}
	}
	if !s.Run() {
		return Result{Ok: false, Explored: s.explored}
	}
	return Result{Ok: true, Linearization: s.Witness(), Explored: s.explored}
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
