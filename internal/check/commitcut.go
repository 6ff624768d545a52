package check

import (
	"slices"
	"sync/atomic"

	"repro/internal/history"
	"repro/internal/spec"
)

// This file is the commit-point-order cut engine: the second cut discipline
// of the bounded-memory monitor, for streams that never reach a globally
// quiescent point. Quiescent cuts (incremental.go) need a moment with no
// operation pending; a stream of overlapping operation chains never has one,
// and retention degrades to unbounded growth (the ROADMAP hole PRs 2–4 left
// open). For strongly-ordered models (spec.StronglyOrdered: queue, stack,
// priority queue) the monitor can instead commit a prefix at a point that
// pending operations straddle, provided every straddler's commit position is
// provably behind the cut.
//
// The cut rule. A window position q is a commit-point cut candidate iff
//
//  1. the operations pending at q are all producers (inserts with
//     state-independent responses);
//  2. none of them is "pinned": a producer is pinned once a completed
//     operation returns its inserted value after the producer was invoked;
//  3. for insertion-order-sensitive models (queue, stack — not the priority
//     queue, whose state is a multiset), the structure is provably empty at
//     q: every value inserted by a completed producer has been observed
//     (removed) before q.
//
// Committing at such a q summarises the operations that completed before q
// by their exact reachable-state set (the same FinalStates enumeration
// quiescent cuts use) and restages the straddling producers' invocations at
// the head of the remaining segment, where the persistent segment search
// treats them as ordinary pending calls.
//
// Why it is exact (verdict-identical to the unbounded monitor):
//
//   - Sound (cut accepts => whole history linearizable): a committed-prefix
//     linearization followed by a segment witness is a witness of the whole
//     history. Every committed operation returned before q and every
//     segment operation either was invoked at or after q or is a carried
//     producer whose invocation was earlier still — so the concatenation
//     respects real time, and a carried producer linearized in the segment
//     sits inside its own interval (invoked before q, not yet returned).
//     Its response cannot disagree with the late-arriving return event
//     because producer responses are state-independent.
//
//   - Complete (whole history linearizable => some witness splits at q):
//     take any witness w and the point c just after the last operation that
//     completed before q; all operations invoked at or after q linearize
//     after c (everything completed before q precedes them in real time).
//     Each unpinned straddling producer P with value v can be delayed to c:
//     no operation between P's original position and c observes v (an
//     observation before q would have pinned P — observations before P's
//     invocation linearize before P by real time and are harmless — and an
//     observer straddling q would have disqualified the candidate), and
//     every operation in that span that does not observe v is unaffected by
//     v's removal from the span: removals return values ahead of v
//     identically, and "empty" removals cannot occur in w while v is held.
//     Delaying each straddler in turn, preserving their relative order,
//     yields a sequence whose prefix is a linearization of exactly the
//     completed-before-q operations — a member of the enumerated frontier
//     set. The suffix stays legal because the state at c is preserved: for
//     order-insensitive models the state is a multiset, indifferent to
//     where the straddlers were inserted; for order-sensitive models rule 3
//     made the committed contribution empty, so the state at c is the
//     straddlers' values in insertion order in w and in the delayed
//     sequence alike. (Without rule 3 this fails — delaying an enqueue past
//     a resident committed value flips their FIFO order, which a later
//     removal of the carried value exposes; the FuzzCommitCuts seeds catch
//     exactly that.)
//
// The pinning and residency checks are conservative on duplicate values (an
// observation of v pins every pending producer of v and releases only one
// resident v, whichever instance it matched), which costs cuts, never
// exactness. Models without the capability keep today's quiescent-cut-only
// behaviour: the planner is simply never constructed.

// carriedOp identifies a producer that was pending at a commit-point cut;
// its invocation is restaged at the head of the remaining segment.
type carriedOp struct {
	proc int
	id   uint64
	op   spec.Operation
}

// commitCut is one recorded cut candidate: pos is the window index the cut
// commits through, carried the snapshot of the (unpinned producer)
// operations pending at pos, in invocation order. The snapshot is immutable:
// a producer pinned by a later observation stays a valid carry for this
// candidate, because only observations before pos constrain the delay
// argument above.
type commitCut struct {
	pos     int
	carried []carriedOp
}

// plannedOp is the planner's view of one open operation. consumed marks a
// pending producer whose value a completed observation already returned
// (linearized-but-not-yet-returned insert): its return must not count a
// resident — the instance is gone — or the phantom would block rule 3
// forever.
type plannedOp struct {
	proc     int
	op       spec.Operation
	value    int64
	producer bool
	pinned   bool
	consumed bool
}

// cutPlanner watches the admitted event stream of a retained monitor for
// commit-point cut candidates. It mirrors the monitor's pending-operation
// tracking (at most one open operation per process, so all of its state is
// O(processes) plus the paced candidate queue).
type cutPlanner struct {
	so             spec.StronglyOrdered
	orderSensitive bool
	pending        map[uint64]*plannedOp
	order          []uint64      // open operation ids in invocation order
	resident       map[int64]int // committed-inserted values not yet observed (multiset)
	residentCount  int
	// void records return events that contributed nothing to the resident
	// multiset — consumed producers, and observations that released nothing
	// — so collect can fold a collected return's contribution exactly.
	// Entries matter only while the return event is in the retained window;
	// the collector purges them with the discarded prefix.
	void    map[uint64]struct{}
	cands   []commitCut
	lastPos int // window position of the most recent recorded candidate
	stride  int // minimum spacing between recorded candidates
}

// commitCutStride paces candidate recording: committing a cut costs a
// frontier enumeration and an in-place splice of the piece, so candidates a
// few events apart are pointless, while pieces much larger than a GC batch
// risk the enumeration budget. A quarter of the batch keeps per-piece
// enumerations small. It amortises the piece, not the window: the splice
// rewrites the piece's span in place and copies nothing else.
func commitCutStride(p RetentionPolicy) int {
	s := p.GCBatch / 4
	if s < 1 {
		s = 1
	}
	return s
}

func newCutPlanner(so spec.StronglyOrdered, stride int) *cutPlanner {
	return &cutPlanner{
		so:             so,
		orderSensitive: so.InsertionOrderMatters(),
		pending:        make(map[uint64]*plannedOp),
		resident:       make(map[int64]int),
		void:           make(map[uint64]struct{}),
		stride:         stride,
	}
}

// track mirrors one admitted event: invocations open a planned op (with its
// commit-order classification); returns close one, pin every pending
// producer whose value the completed operation observed, and maintain the
// resident multiset (values inserted by completed producers, not yet
// observed) that rule 3 needs for order-sensitive models.
func (pl *cutPlanner) track(e history.Event) {
	switch e.Kind {
	case history.Invoke:
		v, prod := pl.so.CommitWitness(e.Op)
		pl.pending[e.ID] = &plannedOp{proc: e.Proc, op: e.Op, value: v, producer: prod}
		pl.order = append(pl.order, e.ID)
	case history.Return:
		if po, open := pl.pending[e.ID]; open && po.producer {
			if po.consumed {
				// The value was already returned by an observation while
				// this insert was pending: counting it now would leave a
				// phantom resident that blocks rule 3 forever.
				pl.void[e.ID] = struct{}{}
			} else {
				pl.resident[po.value]++
				pl.residentCount++
			}
		}
		delete(pl.pending, e.ID)
		for i, id := range pl.order {
			if id == e.ID {
				pl.order = append(pl.order[:i], pl.order[i+1:]...)
				break
			}
		}
		if v, ok := pl.so.Observation(e.Op, e.Res); ok {
			for _, po := range pl.pending {
				if po.producer && po.value == v {
					po.pinned = true
				}
			}
			switch {
			case pl.resident[v] > 0:
				pl.resident[v]--
				pl.residentCount--
				if pl.resident[v] == 0 {
					delete(pl.resident, v)
				}
			default:
				// Nothing committed to release: the observation consumed a
				// still-pending producer's instance (linearized before it
				// returned). Mark exactly one — earliest in invocation
				// order, deterministic — so its return does not count; the
				// debt must bind to a producer that existed now, or a later
				// same-value insert would wrongly absorb it. With no
				// pending producer of v either, the release is simply void
				// (corrupt streams; conservative).
				pl.void[e.ID] = struct{}{}
				for _, id := range pl.order {
					if po := pl.pending[id]; po.producer && po.value == v && !po.consumed {
						po.consumed = true
						break
					}
				}
			}
		}
	}
}

// maybeCandidate records pos as a cut candidate if it is due (stride pacing)
// and every open operation is an unpinned producer. The caller guarantees at
// least one operation is open (a position with none is a quiescent cut,
// which is strictly cheaper and handled elsewhere).
func (pl *cutPlanner) maybeCandidate(pos int) {
	if pos-pl.lastPos < pl.stride || len(pl.order) == 0 {
		return
	}
	if pl.orderSensitive && pl.residentCount != 0 {
		return // rule 3: a resident value could outrank a delayed insert
	}
	carried := make([]carriedOp, 0, len(pl.order))
	for _, id := range pl.order {
		po := pl.pending[id]
		if !po.producer || po.pinned {
			return
		}
		carried = append(carried, carriedOp{proc: po.proc, id: id, op: po.op})
	}
	pl.lastPos = pos
	pl.cands = append(pl.cands, commitCut{pos: pos, carried: carried})
}

// shift rebases recorded positions after the collector dropped a window
// prefix of delta events. Candidates inside the dropped prefix are behind
// the committed frontier and can never be committed again.
func (pl *cutPlanner) shift(delta int) {
	kept := pl.cands[:0]
	for _, c := range pl.cands {
		if c.pos > delta {
			c.pos -= delta
			kept = append(kept, c)
		}
	}
	pl.cands = kept
	pl.lastPos -= delta
	if pl.lastPos < 0 {
		pl.lastPos = 0
	}
}

// collect folds a return event the collector discards into base, the
// residency at the GC horizon that window reloads re-seed, and drops its void
// memo entry: the event counts in base what it counted in the totals when it
// was tracked. Returns are collected in tracking order, so an observation
// finds its resident already in base. It returns base, made on first use.
func (pl *cutPlanner) collect(e history.Event, base map[int64]int) map[int64]int {
	if _, void := pl.void[e.ID]; void {
		delete(pl.void, e.ID)
		return base
	}
	if v, prod := pl.so.CommitWitness(e.Op); prod {
		if base == nil {
			base = make(map[int64]int, 4)
		}
		base[v]++
	} else if v, ok := pl.so.Observation(e.Op, e.Res); ok && base[v] > 0 {
		if base[v]--; base[v] == 0 {
			delete(base, v)
		}
	}
	return base
}

// seedResident folds a GC-base residency snapshot back in after a reset: the
// replayed window only contributes its own inserts and observations, and an
// observation of a base resident must find it (an observation that finds no
// resident is conservatively ignored, which can only suppress cuts).
func (pl *cutPlanner) seedResident(m map[int64]int) {
	for v, c := range m {
		pl.resident[v] += c
		pl.residentCount += c
	}
}

// reset clears all per-stream state (window reloads replay the new window
// through track from scratch).
func (pl *cutPlanner) reset() {
	pl.pending = make(map[uint64]*plannedOp)
	pl.order = pl.order[:0]
	pl.resident = make(map[int64]int)
	pl.residentCount = 0
	pl.void = make(map[uint64]struct{})
	pl.cands = pl.cands[:0]
	pl.lastPos = 0
}

// advanceCommitCuts commits the planner's candidates stepwise, mirroring the
// quiescent-cut walk of advanceCuts: pieces span the gaps between
// consecutive candidates, so each exact-set enumeration stays small, and a
// deterministically-overflowing boundary is dropped rather than retried
// forever. Runs only after the quiescent boundaries are drained — a
// quiescent cut carries no operations and costs no splice, so it always
// wins where available.
func (inc *Incremental) advanceCommitCuts() {
	pl := inc.planner
	for len(pl.cands) > 0 {
		c := pl.cands[0]
		if c.pos <= inc.cutIdx || c.pos-inc.cutIdx <= len(c.carried) {
			// Behind the committed frontier, or the piece holds nothing
			// beyond the carried invocations: committing would not advance.
			pl.cands = pl.cands[1:]
			continue
		}
		prev := inc.hBase + inc.cutIdx
		inc.commitCutAt(c)
		pl.cands = pl.cands[1:]
		if inc.hBase+inc.cutIdx == prev {
			// Enumeration over budget at this boundary. The piece and the
			// frontier are fixed, so retrying would fail identically forever:
			// drop it and stop for this append, exactly as the quiescent walk
			// does (the next candidate's piece reaches further and is
			// attempted on the next append).
			return
		}
	}
}

// commitCutAt commits the frontier through the commit-point cut c: the
// operations that completed before c.pos are summarised as their exact
// reachable-state set and the carried producers' invocations are restaged at
// the head of the remaining segment, where the next segment check treats
// them as ordinary pending calls. The retained window keeps its length (the
// splice moves the carried invocations, it discards nothing), so the splice
// rewrites h[cutIdx:q] in place; the regular collector then reclaims the
// committed region once it holds GCBatch events.
func (inc *Incremental) commitCutAt(c commitCut) {
	q := c.pos
	// The committed piece: every operation that completed before the cut.
	// The carried producers contribute only invocation events here (their
	// returns are at or beyond q by definition of pending-at-q), and those
	// move into the segment. A scan of c.carried finds them: at most one
	// operation per process is open. The piece goes to a scratch buffer, so
	// a cut dropped below leaves the window untouched.
	piece := inc.piece[:0]
	for _, e := range inc.h[inc.cutIdx:q] {
		if !slices.ContainsFunc(c.carried, func(co carriedOp) bool { return co.id == e.ID }) {
			piece = append(piece, e)
		}
	}
	inc.piece = piece
	if len(piece) != q-inc.cutIdx-len(c.carried) {
		// Some carried invocation is not in the piece's span, so the splice
		// would not preserve the window's length. The planner never records
		// such a candidate; drop it as an over-budget cut is dropped.
		pieceGuardFired.Add(1)
		return
	}
	// A state that exactly refuted the whole segment contributes nothing
	// when the piece is the segment's completed part (any piece witness
	// would extend to a segment witness by dropping the pendings), mirroring
	// the whole-segment skip of the quiescent path.
	next, ok := inc.enumerateFrontier(piece, q == len(inc.h))
	if !ok {
		return // over budget; the caller drops the candidate
	}
	// Splice: completed piece ++ restaged carried invocations over
	// h[cutIdx:q]. Window length is preserved, so every recorded position at
	// or beyond q keeps its meaning.
	cut := inc.cutIdx + copy(inc.h[inc.cutIdx:], piece)
	for i, co := range c.carried {
		inc.h[cut+i] = history.Event{Kind: history.Invoke, Proc: co.proc, ID: co.id, Op: co.op}
	}
	inc.installFrontier(cut, next)
	inc.stats.CommitCuts++
	inc.stats.CarriedOps += len(c.carried)
	inc.gc()
}

// pieceGuardFired counts the commit cuts the piece-length guard dropped.
var pieceGuardFired atomic.Int64
