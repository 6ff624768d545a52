// Package loglin is the log-linear decrease-and-conquer decision tier for
// per-value-matched models (queue, stack, set, priority queue), after the
// monitoring algorithms of "Efficient Decrease-and-Conquer Linearizability
// Monitoring" (arXiv:2410.04581) and "Efficient Linearizability Monitoring"
// (arXiv:2509.17795). It is internal/check's only fast tier, in front of the
// exponential Wing–Gong search: on an unambiguous history it returns a
// definitive Yes or No in O(n log n) comparisons, and on an ambiguous one it
// returns an explicit fall-back signal instead of guessing.
//
// # The fragment
//
// Every decider works on the same skeleton. Operations are classified
// through spec.PerValueMatched into inserts, value removals, empty removals
// and (for the set) reads; inserts are matched to the removal of the same
// value. Linearization points are real-valued instants strictly inside the
// open interval (InvIdx, RetIdx) of each operation, so for two operations A
// and B the order A-before-B is achievable iff InvIdx(A) < RetIdx(B), and is
// forced iff RetIdx(A) <= InvIdx(B). A matched value v is provably resident
// throughout the closed gap [RetIdx(insert), InvIdx(remove)] — its forced
// span — and a never-removed value is resident from RetIdx(insert) on.
// Each decider peels one extremal value at a time (front of queue, blip of
// stack, minimum of pqueue, single window of a set element) and checks the
// peel against the forced spans of everything that could contend with it.
//
// # Ambiguity
//
// The per-value decomposition is exact only when matching is unambiguous.
// Three things break it, and each is detected and reported as a Trigger
// rather than decided:
//
//   - a value inserted more than once (matching is no longer a function);
//   - a pending removal or read (its missing response hides which value it
//     took, so no matching exists yet);
//   - for the stack only, a matched pair whose push and pop intervals do not
//     overlap (the value provably resides on the stack for a while, so pops
//     of other values must thread around it and the per-value peel loses
//     exactness; overlapping pairs — "blips" — can always be linearized as
//     an adjacent push;pop and peel cleanly).
//
// Pending inserts do not trigger ambiguity: one whose value some completed
// removal returned provably took effect (it is forced, with return at
// +infinity), and one whose value was never observed by any completed
// operation can be dropped — excluding a pending operation is always legal,
// and in the trigger-free fragment no other response can depend on the
// dropped value's presence.
//
// Soundness is asymmetric by design: every No rests on a forced-order
// argument (the checks here are necessary conditions), while Yes claims
// completeness of those checks over the unambiguous fragment. The
// differential fuzzers in internal/check (FuzzFastTierQueue/Stack/Set/
// PQueue) enforce both directions against the exact Wing–Gong search.
package loglin

import (
	"math/bits"
	"sort"

	"repro/internal/history"
	"repro/internal/spec"
)

// Verdict is the tier's three-valued answer.
type Verdict int8

const (
	// No: the history is provably not linearizable.
	No Verdict = iota + 1
	// Ambiguous: the history is outside the tier's fragment; fall back to
	// the exact search. Result.Trigger says why.
	Ambiguous
	// Yes: the history is linearizable.
	Yes
)

func (v Verdict) String() string {
	switch v {
	case No:
		return "No"
	case Ambiguous:
		return "Ambiguous"
	case Yes:
		return "Yes"
	}
	return "Verdict(?)"
}

// Trigger identifies the ambiguity that forced a fallback.
type Trigger uint8

const (
	// TriggerNone: no ambiguity (Verdict is Yes or No).
	TriggerNone Trigger = iota
	// TriggerModel: the model is outside the tier's fragment entirely, or
	// the history contains an operation the model's per-value classification
	// does not cover.
	TriggerModel
	// TriggerDuplicate: some value is inserted more than once, so
	// insert/remove matching is ambiguous.
	TriggerDuplicate
	// TriggerPendingRemove: a removal or read is pending; without its
	// response the matching is unknown.
	TriggerPendingRemove
	// TriggerResidency: stack only — a matched pair with disjoint push/pop
	// intervals forces the value to reside on the stack, outside the blip
	// fragment the stack peel decides exactly.
	TriggerResidency
)

func (t Trigger) String() string {
	switch t {
	case TriggerNone:
		return "none"
	case TriggerModel:
		return "model"
	case TriggerDuplicate:
		return "duplicate-value"
	case TriggerPendingRemove:
		return "pending-remove"
	case TriggerResidency:
		return "residency"
	}
	return "Trigger(?)"
}

// Result carries the tier's verdict and its counter-instrumented cost.
type Result struct {
	V       Verdict
	Trigger Trigger // set iff V == Ambiguous
	// Steps counts macro peeling decisions: one per matched value, per
	// never-removed value and per empty removal the decider disposed of.
	// This is the "explored steps" figure the B13 gate compares against the
	// Wing–Gong search's explored-configuration count.
	Steps int
	// Work counts fine-grained comparisons (scans, sort comparisons at
	// n*ceil(log2 n) per sort, binary-search probes); the heavy-tail
	// regression test asserts Work stays within an O(n log n) envelope.
	Work int
}

// inf stands in for an unreturned (pending-forced or never-happening) event
// index: far above any real index, with headroom so index arithmetic cannot
// overflow.
const inf = int(^uint(0)>>1) / 4

// Decide runs the tier on h under model m. It never guesses: the verdict is
// Yes or No only when the history lies in the decidable fragment, and
// Ambiguous (with the trigger) otherwise.
func Decide(m spec.Model, h history.History) Result {
	return decideOps(m, h.Ops())
}

// DecideFrom runs the tier on h from the state whose values, in insert
// order, are resident (spec.PerValueMatched.Resident) instead of from m's
// initial state. It decides h behind a sequential prefix of completed
// inserts of those values: every prefix insert returns before the first
// event of h, so every linearization of the whole starts with the prefix in
// order and reaches exactly that state, and the whole is linearizable iff h
// is linearizable from the state. The reduction adds nothing to the
// fragment: a resident value inserted again in h is a duplicate, and (stack)
// a resident value popped in h has a forced residency, so both abstain
// through the usual triggers.
func DecideFrom(m spec.Model, resident []int64, h history.History) Result {
	if len(resident) == 0 {
		return Decide(m, h)
	}
	ins, ok := inserts[m.Name()]
	if !ok {
		return Result{V: Ambiguous, Trigger: TriggerModel}
	}
	seg := h.Ops()
	k := len(resident)
	ops := make([]history.Op, k, k+len(seg))
	for i, v := range resident {
		ops[i] = history.Op{Proc: -1, Op: spec.Operation{Method: ins.method, Arg: v},
			Res: ins.res, InvIdx: 2 * i, RetIdx: 2*i + 1, Complete: true}
	}
	for _, o := range seg {
		o.InvIdx += 2 * k
		if o.Complete {
			o.RetIdx += 2 * k
		}
		ops = append(ops, o)
	}
	return decideOps(m, ops)
}

// inserts maps each model the tier decides to its insert method and the
// response that insert gives on a value not yet present: the operations
// DecideFrom writes a state's resident values as.
var inserts = map[string]struct {
	method string
	res    spec.Response
}{
	"queue":  {spec.MethodEnq, spec.OKResp()},
	"stack":  {spec.MethodPush, spec.BoolResp(true)},
	"set":    {spec.MethodAdd, spec.BoolResp(true)},
	"pqueue": {spec.MethodInsert, spec.OKResp()},
}

// decideOps is Decide on h's operations, in invocation order.
func decideOps(m spec.Model, ops []history.Op) Result {
	pv, ok := m.(spec.PerValueMatched)
	if !ok {
		return Result{V: Ambiguous, Trigger: TriggerModel}
	}
	var c counters
	var r Result
	switch m.Name() {
	case "queue":
		r = decideQueue(pv, ops, &c)
	case "stack":
		r = decideStack(pv, ops, &c)
	case "set":
		r = decideSet(ops, &c)
	case "pqueue":
		r = decidePQueue(pv, ops, &c)
	default:
		return Result{V: Ambiguous, Trigger: TriggerModel}
	}
	r.Steps, r.Work = c.steps, c.work
	return r
}

// Supported reports whether Decide can ever do better than Ambiguous for m.
func Supported(m spec.Model) bool {
	if _, ok := m.(spec.PerValueMatched); !ok {
		return false
	}
	_, ok := inserts[m.Name()]
	return ok
}

// counters accumulates the two instrumentation counts.
type counters struct {
	steps, work int
}

// sorted charges one sort of n elements at the comparison-model cost.
func (c *counters) sorted(n int) {
	if n > 1 {
		c.work += n * bits.Len(uint(n-1))
	}
}

// pair is one value's matched insert/remove intervals after normalization.
type pair struct {
	val        int64
	invE, retE int // insert interval; retE == inf when the insert is pending-forced
	invD, retD int // removal interval; meaningful iff removed
	removed    bool
}

// span is a closed interval [l, r] of forced residency on the event-index
// line (r == inf for a value never removed).
type span struct{ l, r int }

// forced reports the pair's forced-residency span and whether it is
// nonempty: the value provably resides throughout [retE, invD] (through
// [retE, inf] if never removed).
func (p pair) forced() (span, bool) {
	if !p.removed {
		return span{p.retE, inf}, true
	}
	if p.retE <= p.invD {
		return span{p.retE, p.invD}, true
	}
	return span{}, false
}

// retIdx maps a possibly-pending operation's return to the open-interval
// arithmetic: pending returns never happen.
func retIdx(op history.Op) int {
	if !op.Complete {
		return inf
	}
	return op.RetIdx
}

// collected is the shared preprocessing output for queue, stack and pqueue.
type collected struct {
	pairs   []pair
	empties []span // open intervals (inv, ret) of empty removals
}

// collect classifies and matches a queue/stack/pqueue history. A non-zero
// Result verdict short-circuits the caller: a matching violation is a
// definitive No, an ambiguity trigger forces fallback. Pending inserts are
// normalized here: observed ones forced (retE = inf), unobserved ones
// dropped. Two passes — ops is in per-process order, not time order, so
// every insert must be indexed before any removal is matched.
func collect(pv spec.PerValueMatched, ops []history.Op, c *counters) (collected, Result) {
	var out collected
	index := make(map[int64]int, len(ops)/2+1)
	// Inserts for per-value models are producers: their acknowledgement is
	// state-independent, so a completed insert's recorded response must
	// equal the response in any state — checked against a shared oracle. A
	// mismatch (e.g. a mutated stream handing Enq a value response) refutes
	// every possible linearization.
	ack := spec.NewOracle(pv)
	for i := range ops {
		op := &ops[i]
		c.work++
		val, ok := pv.InsertValue(op.Op)
		if !ok {
			continue
		}
		if _, dup := index[val]; dup {
			return out, Result{V: Ambiguous, Trigger: TriggerDuplicate}
		}
		if op.Complete {
			want, known := ack.Apply(op.Op)
			if !known {
				return out, Result{V: Ambiguous, Trigger: TriggerModel}
			}
			if op.Res != want {
				return out, Result{V: No}
			}
		}
		index[val] = len(out.pairs)
		out.pairs = append(out.pairs, pair{val: val, invE: op.InvIdx, retE: retIdx(*op)})
	}
	for i := range ops {
		op := &ops[i]
		c.work++
		if _, ok := pv.InsertValue(op.Op); ok {
			continue
		}
		if !op.Complete {
			// A pending non-insert: its response — hence its matching — is
			// unknown.
			return out, Result{V: Ambiguous, Trigger: TriggerPendingRemove}
		}
		if val, ok := pv.RemoveValue(op.Op, op.Res); ok {
			j, ins := index[val]
			if !ins {
				// Removal of a value never inserted.
				return out, Result{V: No}
			}
			if out.pairs[j].removed {
				// The same single-inserted value removed twice.
				return out, Result{V: No}
			}
			out.pairs[j].removed = true
			out.pairs[j].invD, out.pairs[j].retD = op.InvIdx, op.RetIdx
			continue
		}
		if pv.RemovedEmpty(op.Op, op.Res) {
			out.empties = append(out.empties, span{op.InvIdx, op.RetIdx})
			continue
		}
		// An operation the per-value classification does not cover.
		return out, Result{V: Ambiguous, Trigger: TriggerModel}
	}
	// Normalize pending inserts: drop the unobserved, keep the observed as
	// forced (their retE is already inf). Dropping is sound — see the
	// package comment.
	kept := out.pairs[:0]
	for _, p := range out.pairs {
		c.work++
		if p.retE == inf && !p.removed {
			continue
		}
		// Per-pair order feasibility: the insert must be placeable before
		// the removal, i.e. invE < retD strictly (open real intervals with
		// integer endpoints).
		if p.removed && p.invE >= p.retD {
			return out, Result{V: No}
		}
		kept = append(kept, p)
	}
	out.pairs = kept
	return out, Result{}
}

// mergeSpans sorts spans by left endpoint and merges overlapping or touching
// ones (closed intervals: [1,3] and [3,5] merge, [1,3] and [4,6] do not —
// the open real gap (3,4) stays uncovered).
func mergeSpans(spans []span, c *counters) []span {
	if len(spans) == 0 {
		return spans
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].l < spans[j].l })
	c.sorted(len(spans))
	merged := spans[:1]
	for _, s := range spans[1:] {
		c.work++
		last := &merged[len(merged)-1]
		if s.l <= last.r {
			if s.r > last.r {
				last.r = s.r
			}
			continue
		}
		merged = append(merged, s)
	}
	return merged
}

// covered reports whether the open interval (l, r) is entirely inside the
// merged span list: true iff one merged [L, R] has L <= l and r <= R (merged
// spans have real gaps between them, so multiple spans never jointly cover
// an open interval).
func covered(merged []span, l, r int, c *counters) bool {
	n := len(merged)
	if n == 0 {
		return false
	}
	c.work += bits.Len(uint(n))
	// Rightmost span with L <= l.
	i := sort.Search(n, func(k int) bool { return merged[k].l > l }) - 1
	return i >= 0 && merged[i].r >= r
}
