package check

import (
	"math"

	"repro/internal/history"
	"repro/internal/spec"
)

// segSearch is the package's one Wing–Gong linearizability search: Lowe's
// candidate list, lifted and unlifted as operations are linearized and
// undone, memoised on (linearized set, state). It has three uses:
//
//   - Linearizable: one fresh run over a whole history, stopping at the
//     first witness;
//   - FinalStates: one fresh run over a quiescent piece in enumerate mode,
//     where a complete linearization records its final state and backtracks
//     instead of ending the run;
//   - Incremental's persistent segment search, whose state survives history
//     extensions: Feed appends the new events to the candidate list
//     (validating the current witness against newly arrived responses) and
//     Run resumes from the configuration the previous success left behind.
//     On a stream whose suffix keeps linearizing after the existing witness —
//     the common case for a correct implementation — each resume costs
//     O(delta) instead of O(segment).
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
// What the search grows per event lives in its searchArena; the search itself
// holds its position — the stack, which is the witness, the current state and
// the counters. A search built by load is never fed: Feed matches returns
// through the call index that only Feed fills.
type segSearch struct {
	ar *searchArena // owned from construction until release

	head  node // sentinel: the candidate list starts at head.next
	tail  *node
	state spec.State
	stack []segFrame
	bs    bitset // linearized operations; storage is ar.bs

	memoOn            bool // memoise only after the first backtrack (see run)
	completeRemaining int
	explored          int

	fed     int  // events consumed from the segment
	fresh   bool // the last Run started from an empty stack (exact on false)
	aborted bool // the last run stopped without an answer (see run)

	// Enumerate mode (FinalStates): limit caps explored and maxFinals the
	// distinct final states; first-witness mode has no limit.
	enumerate bool
	limit     int
	maxFinals int
	finals    []spec.State
}

// segFrame is one linearized operation on the search stack.
type segFrame struct {
	n    *node
	prev spec.State
	res  spec.Response
}

// newSegSearch returns an empty search over a segment starting at init,
// working in ar, which the search owns until release.
func newSegSearch(init spec.State, ar *searchArena) *segSearch {
	s := &segSearch{ar: ar, state: init, bs: ar.bs[:0], fresh: true, limit: math.MaxInt}
	s.tail = &s.head
	return s
}

// release returns the search's arena to pool. The search must not be used
// afterwards: its operations and candidate list are the arena's.
func (s *segSearch) release(pool *arenaPool) {
	if s.ar != nil {
		pool.Put(s.ar)
		s.ar = nil
	}
}

// load fills a fresh search with the whole history h. Its operations are
// history.OpsInto's, so unvalidated input reads as Ops reads it: events of an
// operation Ops could not match are left out of the candidate list.
func (s *segSearch) load(h history.History) {
	ar := s.ar
	ar.ops = h.OpsInto(ar.ops)
	nodes := ar.nodes(len(h)) // by event index
	for i := range ar.ops {
		o := &ar.ops[i]
		c := &nodes[o.InvIdx]
		c.opIdx, c.isCall, c.linPos = i, true, -1
		if o.Complete {
			r := &nodes[o.RetIdx]
			r.opIdx, r.match, c.match = i, c, r
			s.completeRemaining++
		}
	}
	for i := range nodes {
		if n := &nodes[i]; n.isCall || n.match != nil {
			s.appendNode(n)
		}
	}
	s.stack = make([]segFrame, 0, len(ar.ops))
	s.ensureBits(len(ar.ops))
	ar.memo.Reset(len(s.bs))
}

// ensureBits grows the linearized-set bitset to cover n operations, keeping
// its bits. Grown storage becomes the arena's, for its next search.
func (s *segSearch) ensureBits(n int) {
	words := (n + 63) / 64
	if words <= len(s.bs) {
		return
	}
	if words <= cap(s.bs) {
		old := len(s.bs)
		s.bs = s.bs[:words]
		clear(s.bs[old:])
		return
	}
	grown := make(bitset, words, 2*words)
	copy(grown, s.bs)
	s.bs, s.ar.bs = grown, grown
}

// appendNode links x at the end of the candidate list, patching lifted nodes
// that recorded a nil next: x is their successor in event order, so a later
// unlift reinserts them between their recorded prev and x. Nodes that were
// unlifted back into the list since they were registered are skipped — their
// pointers are live again and must not be overwritten.
func (s *segSearch) appendNode(x *node) {
	for _, n := range s.ar.tailLifted {
		if n.lifted && n.next == nil {
			n.next = x
		}
	}
	s.ar.tailLifted = s.ar.tailLifted[:0]
	x.prev = s.tail
	s.tail.next = x
	s.tail = x
}

// lift removes n (and its match) from the candidate list, keeping the tail
// pointer and the tail-lifted patch set consistent.
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
			s.ar.tailLifted = append(s.ar.tailLifted, n.match)
		}
	}
	if n.next == nil {
		s.ar.tailLifted = append(s.ar.tailLifted, n)
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
	if s.ar.ops[f.n.opIdx].Complete {
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
	ar := s.ar
	if ar.calls == nil {
		ar.calls = make(map[uint64]*node)
	}
	s.memoOn = false
	nodes := ar.nodes(len(delta))
	for i, e := range delta {
		n := &nodes[i]
		switch e.Kind {
		case history.Invoke:
			n.opIdx, n.isCall, n.linPos = len(ar.ops), true, -1
			ar.ops = append(ar.ops, history.Op{Proc: e.Proc, ID: e.ID, Op: e.Op, InvIdx: s.fed + i, RetIdx: -1})
			ar.calls[e.ID] = n
			s.appendNode(n)
		case history.Return:
			c := ar.calls[e.ID]
			o := &ar.ops[c.opIdx]
			o.Res, o.Complete, o.RetIdx = e.Res, true, s.fed+i
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
			n.opIdx, n.match, c.match = c.opIdx, c, n
			s.appendNode(n)
		}
	}
	s.fed += len(delta)
	s.ensureBits(len(ar.ops))
	ar.memo.Reset(len(s.bs))
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

// run is the search loop. In first-witness mode it answers true at the first
// linearization of every complete operation. In enumerate mode it records
// that linearization's final state and backtracks, so it always answers
// false, having collected finals.
//
// A run can also stop without an answer, answering false with s.aborted set;
// the caller must then discard the search. That happens when ctl records a
// witness at a frontier position before pos — this search's outcome can no
// longer matter, since the parallel join commits outcomes only up to the
// first accepting position — and, in enumerate mode, when explored passes
// limit or the finals pass maxFinals.
func (s *segSearch) run(ctl *raceCtl, pos int32) bool {
	// Starting from an empty stack with a memo free of entries recorded
	// against a smaller event set (Feed clears it), the DFS explores the full
	// tree, so a false answer is an exact refutation.
	s.fresh = len(s.stack) == 0
	s.aborted = false
	ops := s.ar.ops
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
			if !s.enumerate {
				return true
			}
			if !s.recordFinal() {
				s.aborted = true
				return false
			}
			entry = nil // backtrack: keep enumerating
		}
		if entry != nil && entry.isCall {
			o := &ops[entry.opIdx]
			next, res, ok := s.state.Apply(o.Op)
			if ok && o.Complete && res != o.Res {
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
				s.bs.set(entry.opIdx)
				if s.memoOn {
					if id, _ := s.ar.in.Intern(next); !s.ar.memo.Insert(s.bs, id) {
						s.bs.clear(entry.opIdx)
						entry = entry.next
						continue
					}
				}
				if s.explored++; s.explored > s.limit {
					s.aborted = true
					return false
				}
				s.push(segFrame{n: entry, prev: s.state, res: res})
				s.lift(entry)
				if o.Complete {
					s.completeRemaining--
				}
				s.state = next
				entry = s.head.next
				continue
			}
			entry = entry.next
			continue
		}
		if len(s.stack) == 0 {
			return false
		}
		s.memoOn = true
		entry = s.pop().n.next
	}
}

// recordFinal adds the current state to the enumeration's finals unless an
// earlier linearization reached it, reporting false once more than maxFinals
// distinct states have been found.
func (s *segSearch) recordFinal() bool {
	ar := s.ar
	id, _ := ar.in.Intern(s.state)
	for int(id) >= len(ar.seenFinal) {
		ar.seenFinal = append(ar.seenFinal, false)
	}
	if ar.seenFinal[id] {
		return true
	}
	ar.seenFinal[id] = true
	s.finals = append(s.finals, s.state)
	return len(s.finals) <= s.maxFinals
}

// Exhausted reports whether the last Run explored the full search tree, i.e.
// whether its false answer was an exact refutation.
func (s *segSearch) Exhausted() bool { return s.fresh }

// Witness returns the current linearization, valid after a Run that returned
// true and before release.
func (s *segSearch) Witness() []LinOp {
	lin := make([]LinOp, len(s.stack))
	for i, f := range s.stack {
		o := s.ar.ops[f.n.opIdx]
		lin[i] = LinOp{Proc: o.Proc, ID: o.ID, Op: o.Op, Res: f.res, Pending: !o.Complete}
	}
	return lin
}
