package check

import (
	"repro/internal/history"
	"repro/internal/spec"
)

// FinalStates enumerates the distinct sequential states reachable by
// linearizations of h from init: the exact "state cover" of a quiescent cut.
// h must be quiescent (every operation complete); ok is false if it is not,
// if more than maxStates distinct states exist, or if the enumeration
// explores more than budget configurations beyond the one-push-per-operation
// linear minimum.
//
// This is what makes garbage-collecting a committed prefix verdict-exact. A
// linearizable quiescent prefix can have several legal sequential orders with
// different final states — concurrent Enq(1) and Enq(2) leave the queue as
// [1,2] or [2,1] — and a future suffix may only be explained by one of them.
// Retention therefore summarises the prefix as the full set: the suffix is
// linearizable after the prefix iff it is linearizable from some member
// (every discarded operation precedes every future event in real time, so
// any witness of the whole history splits at the cut).
//
// The walk is the Wing–Gong search with memoisation on (linearized-set,
// state), continued past the first success: a configuration's subtree is
// explored once, so each distinct final state is recorded exactly once.
//
// The walk runs entirely in ar, which must be empty and is empty again on
// return; only the returned slice is allocated, because the states in it
// become a frontier that outlives the arena.
//
// NOTE: this DFS, Linearizable (wg.go) and segSearch.Run (persist.go) share
// the candidate-list/lift/memo discipline, and FinalStates and segSearch
// draw their memory from the same searchArena; a fix to one usually applies
// to the others (they differ in stop condition, pending handling and state
// persistence, which is why they are not one function).
func (ar *searchArena) FinalStates(init spec.State, h history.History, budget, maxStates int) ([]spec.State, bool) {
	ar.ops = h.OpsInto(ar.ops)
	ops := ar.ops
	if len(ops) == 0 {
		return []spec.State{init}, true
	}
	for _, o := range ops {
		if !o.Complete {
			return nil, false
		}
	}
	defer ar.reset()

	var head *node
	head, ar.cand = buildCandidates(ar.cand, h, ops)

	state := init
	ar.bs = ar.bs.sized(len(ops))
	bs := ar.bs
	in, memo := ar.in, ar.memo
	memo.Reset(len(bs))
	memoOn := false // memoise only after the first backtrack, as in segSearch.Run
	remaining := len(ops)
	explored := 0
	// The budget guards against combinatorial blowup, so it bounds the work
	// beyond the linear minimum: any single linearization already costs one
	// push per operation.
	budget += len(ops)

	var finals []spec.State
	ar.seenFinal = ar.seenFinal[:0]

	entry := head.next
	for {
		if remaining == 0 {
			id, _ := in.Intern(state)
			for int(id) >= len(ar.seenFinal) {
				ar.seenFinal = append(ar.seenFinal, false)
			}
			if !ar.seenFinal[id] {
				ar.seenFinal[id] = true
				finals = append(finals, state)
				if len(finals) > maxStates {
					return nil, false
				}
			}
			entry = nil // force a backtrack: keep enumerating
		}
		if entry != nil && entry.isCall {
			o := ops[entry.opIdx]
			next, res, ok := state.Apply(o.Op)
			if ok && res != o.Res {
				ok = false
			}
			if ok {
				prune := false
				if memoOn {
					bs.set(entry.opIdx)
					id, _ := in.Intern(next)
					if !memo.Insert(bs, id) {
						prune = true
						bs.clear(entry.opIdx)
					}
				} else {
					bs.set(entry.opIdx)
				}
				if !prune {
					explored++
					if explored > budget {
						return nil, false
					}
					ar.stack = append(ar.stack, finalFrame{n: entry, prev: state})
					entry.lift()
					remaining--
					state = next
					entry = head.next
					continue
				}
			}
			entry = entry.next
			continue
		}
		if len(ar.stack) == 0 {
			// finals is empty iff h has no linearization from init: the state
			// contributes nothing to the cut (ok is still true — emptiness is
			// an exact answer, not an enumeration failure).
			return finals, true
		}
		memoOn = true
		f := ar.stack[len(ar.stack)-1]
		ar.stack = ar.stack[:len(ar.stack)-1]
		f.n.unlift()
		remaining++
		bs.clear(f.n.opIdx)
		state = f.prev
		entry = f.n.next
	}
}
