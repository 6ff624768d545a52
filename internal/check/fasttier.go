package check

import (
	"repro/internal/check/loglin"
	"repro/internal/history"
)

// This file threads the log-linear decrease-and-conquer tier
// (internal/check/loglin) through the package's three consumers:
//
//   - the one-shot Monitor (ForModel, monitor.go) — ahead of the complete
//     Wing–Gong search;
//   - the persistent segment checker (Incremental.fastTierSegment, called at
//     the top of checkSegment) — the tier answers whole-history segments
//     without touching the persistent searches, so retention and commit-cut
//     bookkeeping is exactly as if the tier never existed;
//   - the parallel engine — fastTierSegment runs before the fan-out branch
//     of checkSegment, so a tier hit spares the pool round entirely.
//
// The exact search Linearizable itself stays tier-free on purpose: it is the
// reference the tier is differentially fuzzed against, and a reference that
// consulted the tier would be circular.

// fastTierSegment gives the log-linear tier first shot at a segment check.
// decided reports whether the tier answered; ok is the answer.
//
// The tier decides whole histories against the initial state, so it only
// fires while the monitor is still anchored there: no committed prefix
// (cutIdx == 0), no GC horizon (hBase == 0), and the single-state frontier
// that anchoring implies — then frontier[0] is provably the initial state
// (only compaction or GC ever moves the anchor, and both leave a trace in
// cutIdx or hBase). Retention-mode cuts re-enumerate exact frontier sets
// from the events alone (enumerateFrontier), never reading the persistent
// searches, so a tier answer leaves every retention and commit-cut decision
// bit-identical to a tier-off run.
//
// Full-witness mode has one extra dependence: committing a quiescent
// boundary (advanceCuts -> compactTo) folds the live search's witness, which
// the tier does not produce. With such a boundary waiting, a tier Yes is
// therefore discarded — the search runs and compaction proceeds exactly as
// without the tier — while a tier No still short-circuits (nothing compacts
// on a refuted append, and the full-history fallback that follows is the
// same either way).
//
// On a tier No in retention mode the frontier state is marked dead, exactly
// as an exhausted search would have — the refutation is exact, and
// prefix-closure keeps it standing for every extension.
//
// FastTierHits counts tier answers the engine used; FastTierFallbacks counts
// tier runs after which the exact search still ran (ambiguity, or a
// discarded Yes).
func (inc *Incremental) fastTierSegment(seg history.History) (decided, ok bool) {
	if !inc.fastTier || inc.cutIdx != 0 || inc.hBase != 0 || len(inc.frontier) != 1 {
		return false, false
	}
	if inc.dead != nil && inc.dead[0] {
		return false, false
	}
	r := loglin.Decide(inc.model, seg)
	switch r.V {
	case loglin.Yes:
		if !inc.retain && len(inc.cuts) > 0 {
			// A pending quiescent boundary needs the search's witness to
			// compact; the tier's Yes (witness-free) cannot substitute.
			inc.stats.FastTierFallbacks++
			return false, false
		}
		inc.stats.FastTierHits++
		inc.stats.SegYes++
		return true, true
	case loglin.No:
		inc.stats.FastTierHits++
		if inc.dead != nil {
			inc.dead[0] = true
		}
		return true, false
	}
	inc.stats.FastTierFallbacks++
	return false, false
}
