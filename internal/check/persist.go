package check

import (
	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/stateset"
)

// segSearch is a Wing–Gong linearizability search whose state persists across
// history extensions. Where Linearizable rebuilds its candidate list, stack
// and memo table from scratch on every call, a segSearch keeps them between
// calls: Feed appends the new events to the candidate list (validating the
// current witness against newly arrived responses) and Run resumes the search
// from the configuration the previous success left behind. On a stream whose
// suffix keeps linearizing after the existing witness — the common case for a
// correct implementation — each resume costs O(delta) instead of O(segment),
// which is what lets bursts between quiescent cuts stay cheap (ROADMAP: stop
// re-running the search from the frontier on every append).
//
// A resumed Run that answers true is sound: the witness on the stack was
// revalidated event by event, exactly as a fresh search would have. A resumed
// Run that answers false is NOT complete — the resumed search never revisits
// branches that an earlier Run abandoned under a memo entry recorded for a
// smaller event set — so callers must treat false as "unknown" and re-decide
// with a fresh search (Exhausted reports whether this Run was born fresh, in
// which case false is exact). Incremental does exactly that: optimistic
// resume, scratch rebuild on refutation.
//
// NOTE: Run, Linearizable (wg.go) and FinalStates (frontier.go) share the
// candidate-list/lift/memo discipline; a fix to one usually applies to the
// others.
type segSearch struct {
	init spec.State

	ops   []segOp
	byID  map[uint64]int // op ID -> index into ops
	head  *node
	tail  *node
	calls map[uint64]*node // op ID -> call node

	state             spec.State
	stack             []segFrame
	bs                bitset
	in                *stateset.Interner // states interned over the search's lifetime
	memo              *stateset.MemoSet  // (bitset, state id) configurations, reset per Feed
	memoOn            bool               // memoise only after the first backtrack (see Run)
	completeRemaining int
	explored          int

	// tailLifted holds lifted nodes whose recorded next pointer is nil (they
	// were at the tail when lifted). Appending a node would otherwise break
	// their reinsertion: unlift restores a node between its recorded
	// neighbours, and a nil next would truncate everything appended since. The
	// first append after such a lift patches them to point at the new node,
	// which is exactly their successor in event order.
	tailLifted []*node

	fed   int  // events consumed from the segment
	fresh bool // the last Run started from an empty stack (exact on false)

	ar      *searchArena // backs in/memo; owned from construction until release
	aborted bool         // the last run was cancelled by the parallel race control
}

// segOp mirrors history.Op for the search: the mutable completion status is
// what Feed updates when a pending operation's response arrives.
type segOp struct {
	proc     int
	id       uint64
	op       spec.Operation
	res      spec.Response
	complete bool
}

// segFrame is one linearized operation on the search stack.
type segFrame struct {
	n    *node
	prev spec.State
	res  spec.Response
}

// newSegSearch returns an empty search over a segment starting at init,
// memoising in ar, which the search owns until release.
func newSegSearch(init spec.State, ar *searchArena) *segSearch {
	head := &node{}
	return &segSearch{
		init:  init,
		byID:  make(map[uint64]int),
		head:  head,
		tail:  head,
		calls: make(map[uint64]*node),
		state: init,
		in:    ar.in,
		memo:  ar.memo,
		fresh: true,
		ar:    ar,
	}
}

// release returns the search's arena to pool. The search must not Run or
// Feed afterwards; its witness stack stays readable.
func (s *segSearch) release(pool *arenaPool) {
	if s.ar != nil {
		pool.Put(s.ar)
		s.ar, s.in, s.memo = nil, nil, nil
	}
}

// appendNode links x at the end of the candidate list, patching lifted nodes
// that recorded a nil next: x is their successor in event order, so a later
// unlift reinserts them between their recorded prev and x. Nodes that were
// unlifted back into the list since they were registered are skipped — their
// pointers are live again and must not be overwritten.
func (s *segSearch) appendNode(x *node) {
	for _, n := range s.tailLifted {
		if n.lifted && n.next == nil {
			n.next = x
		}
	}
	s.tailLifted = s.tailLifted[:0]
	x.prev = s.tail
	s.tail.next = x
	s.tail = x
}

// lift removes n (and its match) from the candidate list, keeping the tail
// pointer and the tailLifted patch set consistent.
func (s *segSearch) lift(n *node) {
	if n.match == s.tail {
		s.tail = n.match.prev
	}
	if n == s.tail {
		s.tail = n.prev
	}
	n.lift()
	n.lifted = true
	if n.match != nil {
		n.match.lifted = true
		if n.match.next == nil {
			s.tailLifted = append(s.tailLifted, n.match)
		}
	}
	if n.next == nil {
		s.tailLifted = append(s.tailLifted, n)
	}
}

// unlift reinserts n (and its match), restoring the tail pointer when the
// reinserted nodes land at the end of the list.
func (s *segSearch) unlift(n *node) {
	n.unlift()
	n.lifted = false
	if n.match != nil {
		n.match.lifted = false
	}
	if n.next == nil {
		s.tail = n
	}
	if n.match != nil && n.match.next == nil {
		s.tail = n.match
	}
}

// push records a linearization choice.
func (s *segSearch) push(f segFrame) {
	f.n.linPos = len(s.stack)
	s.stack = append(s.stack, f)
}

// pop undoes the top frame and returns it.
func (s *segSearch) pop() segFrame {
	f := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	f.n.linPos = -1
	s.unlift(f.n)
	if s.ops[f.n.opIdx].complete {
		s.completeRemaining++
	}
	s.bs.clear(f.n.opIdx)
	s.state = f.prev
	return f
}

// Feed appends delta — the next events of the segment, in order — to the
// candidate list. Events must already be §2 well-formed (Incremental admits
// them first). A response arriving for an operation the current witness
// linearized while pending pops the witness back to that choice point, so
// every list node is created strictly in LIFO discipline with the lifts. The
// memo table is dropped: its entries were recorded against the smaller event
// set and would wrongly prune branches whose subtrees have since grown.
func (s *segSearch) Feed(delta history.History) {
	if len(delta) == 0 {
		return
	}
	s.memoOn = false
	s.fed += len(delta)
	defer func() { s.memo.Reset(len(s.bs)) }() // after the loop: the bitset may grow below
	for _, e := range delta {
		switch e.Kind {
		case history.Invoke:
			idx := len(s.ops)
			s.ops = append(s.ops, segOp{proc: e.Proc, id: e.ID, op: e.Op})
			s.byID[e.ID] = idx
			if idx >= len(s.bs)*64 {
				grown := newBitset(2*idx + 64)
				copy(grown, s.bs)
				s.bs = grown
			}
			c := &node{opIdx: idx, isCall: true, linPos: -1}
			s.calls[e.ID] = c
			s.appendNode(c)
		case history.Return:
			idx := s.byID[e.ID]
			o := &s.ops[idx]
			o.res = e.Res
			o.complete = true
			c := s.calls[e.ID]
			if li := c.linPos; li >= 0 {
				// The witness linearized this op while it was pending. Pop
				// back to that choice so the return node can be appended at
				// its real position in the candidate list; anything else
				// would create the node out of LIFO order and break the
				// lift/unlift discipline the list relies on. Run re-extends
				// the witness greedily, so a burst that completes its
				// operations promptly still resumes in O(delta).
				for len(s.stack) > li {
					s.pop() // the pop of c's frame counts o as complete-unlinearized
				}
			} else {
				s.completeRemaining++
			}
			ret := &node{opIdx: idx, match: c}
			c.match = ret
			s.appendNode(ret)
		}
	}
}

// Run resumes the search and reports whether a linearization of the fed
// events from init exists along the current branch. A true answer is exact
// (explicit witness); a false answer is exact only if Exhausted() — see the
// type comment.
func (s *segSearch) Run() bool { return s.run(nil, 0) }

// cancelStride is how many search steps pass between checks of the race
// control: rare enough to stay off the hot path, frequent enough that a
// cancelled speculative refutation stops within microseconds.
const cancelStride = 1024

// run is Run with first-witness cancellation: when ctl records a witness at a
// frontier position before pos, this search's outcome can no longer matter
// (the parallel join commits outcomes only up to the first accepting
// position), so it aborts. An aborted run answers false with s.aborted set;
// the answer carries no information and the caller must discard the search.
func (s *segSearch) run(ctl *raceCtl, pos int32) bool {
	// Starting from an empty stack with a memo free of entries recorded
	// against a smaller event set (Feed clears it), the DFS explores the full
	// tree, so a false answer is an exact refutation.
	s.fresh = len(s.stack) == 0
	s.aborted = false
	steps := 0
	entry := s.head.next
	for {
		if ctl != nil {
			if steps++; steps >= cancelStride {
				steps = 0
				if ctl.beaten(pos) {
					s.aborted = true
					return false
				}
			}
		}
		if s.completeRemaining == 0 {
			return true
		}
		if entry != nil && entry.isCall {
			o := &s.ops[entry.opIdx]
			next, res, ok := s.state.Apply(o.op)
			if ok && o.complete && res != o.res {
				ok = false
			}
			if ok {
				// The memo exists to prune re-exploration after backtracks,
				// but every entry records the whole linearized-set bitset —
				// O(ops) words. On the greedy no-backtrack path (correct
				// streams) every configuration is new, so memoising eagerly
				// burns O(ops²) memory for zero pruning; start only at the
				// first backtrack. Sound: a hit still means the exact
				// configuration's subtree was explored under this event set
				// (interning is exact; see internal/stateset).
				prune := false
				if s.memoOn {
					s.bs.set(entry.opIdx)
					id, _ := s.in.Intern(next)
					if !s.memo.Insert(s.bs, id) {
						prune = true
						s.bs.clear(entry.opIdx)
					}
				} else {
					s.bs.set(entry.opIdx)
				}
				if !prune {
					s.explored++
					s.push(segFrame{n: entry, prev: s.state, res: res})
					s.lift(entry)
					if o.complete {
						s.completeRemaining--
					}
					s.state = next
					entry = s.head.next
					continue
				}
			}
			entry = entry.next
			continue
		}
		if len(s.stack) == 0 {
			return false
		}
		s.memoOn = true
		f := s.pop()
		entry = f.n.next
	}
}

// Exhausted reports whether the last Run explored the full search tree, i.e.
// whether its false answer was an exact refutation.
func (s *segSearch) Exhausted() bool { return s.fresh }

// Witness returns the current linearization, valid after a Run that returned
// true.
func (s *segSearch) Witness() []LinOp {
	lin := make([]LinOp, len(s.stack))
	for i, f := range s.stack {
		o := s.ops[f.n.opIdx]
		lin[i] = LinOp{Proc: o.proc, ID: o.id, Op: o.op, Res: f.res, Pending: !o.complete}
	}
	return lin
}

// rebuildSegSearch builds a fresh search over the whole segment on an arena
// drawn from pool, so that its first Run is an exact decision.
func rebuildSegSearch(init spec.State, seg history.History, pool *arenaPool) *segSearch {
	s := newSegSearch(init, pool.Get())
	s.Feed(seg)
	return s
}
