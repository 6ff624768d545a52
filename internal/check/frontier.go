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
// The walk is the package's one search (segSearch) in enumerate mode: the
// Wing–Gong search continued past every success, memoised on
// (linearized-set, state), so a configuration's subtree is explored once and
// each distinct final state is recorded exactly once.
//
// The walk runs entirely in ar, which must be empty and is empty again on
// return; only the returned slice is allocated, because the states in it
// become a frontier that outlives the arena.
func (ar *searchArena) FinalStates(init spec.State, h history.History, budget, maxStates int) ([]spec.State, bool) {
	defer ar.reset()
	s := newSegSearch(init, ar)
	s.load(h)
	for _, o := range ar.ops {
		if !o.Complete {
			return nil, false
		}
	}
	// The budget guards against combinatorial blowup, so it bounds the work
	// beyond the linear minimum: any single linearization already costs one
	// push per operation.
	s.enumerate, s.limit, s.maxFinals = true, budget+len(ar.ops), maxStates
	s.run(nil, 0)
	if s.aborted {
		return nil, false
	}
	// finals is empty iff h has no linearization from init: the state
	// contributes nothing to the cut (ok is still true — emptiness is an
	// exact answer, not an enumeration failure).
	return s.finals, true
}
