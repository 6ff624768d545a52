package check

import (
	"repro/internal/check/loglin"
	"repro/internal/history"
	"repro/internal/spec"
)

// This file threads the log-linear decrease-and-conquer tier
// (internal/check/loglin) through the package's three consumers:
//
//   - the one-shot Monitor (ForModel, monitor.go) — ahead of the complete
//     Wing–Gong search;
//   - the persistent segment checker (Incremental.fastTierSegment, called at
//     the top of checkSegment) — the tier answers segments without touching
//     the persistent searches, so retention and commit-cut bookkeeping is
//     exactly as if the tier never existed;
//   - the parallel engine — fastTierSegment runs before the fan-out branch
//     of checkSegment, so a tier hit spares the pool round entirely.
//
// The exact search Linearizable itself stays tier-free on purpose: it is the
// reference the tier is differentially fuzzed against, and a reference that
// consulted the tier would be circular.

// TierAbstentions counts, by reason, the segment checks the fast tier handed
// to the exact search: one loglin.Trigger each, plus NoPrefix for a frontier
// state the model cannot write as resident values (spec.PerValueMatched
// Resident). A retained monitor abstains at most once per segment check —
// at the first live state the tier cannot decide — so the fields sum to the
// abstaining share of FastTierFallbacks.
type TierAbstentions struct {
	Model         int // loglin.TriggerModel: an operation outside the per-value classification
	Duplicate     int // loglin.TriggerDuplicate: a value inserted twice (a resident value re-inserted counts)
	PendingRemove int // loglin.TriggerPendingRemove: a removal or read still pending
	Residency     int // loglin.TriggerResidency: a stack value resident across other pops
	NoPrefix      int // a frontier state with no resident-value prefix
}

func (a *TierAbstentions) count(t loglin.Trigger) {
	switch t {
	case loglin.TriggerDuplicate:
		a.Duplicate++
	case loglin.TriggerPendingRemove:
		a.PendingRemove++
	case loglin.TriggerResidency:
		a.Residency++
	default:
		a.Model++
	}
}

func (a *TierAbstentions) add(b TierAbstentions) {
	a.Model += b.Model
	a.Duplicate += b.Duplicate
	a.PendingRemove += b.PendingRemove
	a.Residency += b.Residency
	a.NoPrefix += b.NoPrefix
}

// fastTierSegment gives the log-linear tier first shot at a segment check.
// decided reports whether the tier answered for the whole segment; ok is the
// answer. When it did not, the exact search takes over at frontier index
// from: every live state before it was refuted by the tier and is dead.
//
// Retention mode walks the live frontier states in frontier order and runs
// the tier from each one (loglin.DecideFrom on the state's resident values):
// the segment is linearizable from a state exactly when it is linearizable
// from the initial state behind a sequential prefix of inserts of those
// values. A tier No marks the state dead, as an exhausted search would — the
// refutation is exact, and prefix-closure keeps it standing for every
// extension. A tier Yes answers the segment. An abstention hands the rest of
// the frontier, from that state on, to the search. The search walks the
// same order and also stops at the first witness, so the dead set is the one
// a tier-off run leaves; and cuts re-enumerate exact frontier sets from the
// events alone (enumerateFrontier), never reading the persistent searches.
// Every retention and commit-cut decision is therefore bit-identical to a
// tier-off run.
//
// Full-witness mode consults the tier only while the monitor is anchored at
// the initial state: no committed prefix (cutIdx == 0; its frontier is
// always one state, and only a compaction moves it off Init). Committing a quiescent boundary (advanceCuts ->
// compactTo) there folds the live search's witness, which the tier does not
// produce; with such a boundary waiting, a tier Yes is therefore discarded —
// the search runs and compaction proceeds exactly as without the tier —
// while a tier No still short-circuits (nothing compacts on a refuted
// append, and the full-history fallback that follows is the same either
// way). Past the first cut nearly every segment check has a boundary
// waiting, so the tier would only add its own cost.
//
// FastTierHits counts segment checks the tier decided; FastTierFallbacks
// counts tier runs after which the exact search still ran (an abstention,
// counted by reason in TierAbstain, or a discarded Yes).
func (inc *Incremental) fastTierSegment(seg history.History) (decided, ok bool, from int) {
	if !inc.fastTier {
		return false, false, 0
	}
	if !inc.retain {
		decided, ok = inc.fastTierAnchored(seg)
		return decided, ok, 0
	}
	pv := inc.model.(spec.PerValueMatched) // loglin.Supported
	for i, st := range inc.frontier {
		if inc.dead[i] {
			continue
		}
		vals, has := pv.Resident(st)
		if !has {
			inc.stats.FastTierFallbacks++
			inc.stats.TierAbstain.NoPrefix++
			return false, false, i
		}
		r := loglin.DecideFrom(inc.model, vals, seg)
		switch r.V {
		case loglin.Yes:
			inc.stats.FastTierHits++
			inc.stats.SegYes++
			return true, true, 0
		case loglin.No:
			inc.dead[i] = true
		default:
			inc.stats.FastTierFallbacks++
			inc.stats.TierAbstain.count(r.Trigger)
			return false, false, i
		}
	}
	inc.stats.FastTierHits++
	return true, false, 0
}

// fastTierAnchored is the full-witness half of fastTierSegment.
func (inc *Incremental) fastTierAnchored(seg history.History) (decided, ok bool) {
	if inc.cutIdx != 0 {
		return false, false
	}
	r := loglin.Decide(inc.model, seg)
	switch r.V {
	case loglin.Yes:
		if len(inc.cuts) > 0 {
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
		return true, false
	}
	inc.stats.FastTierFallbacks++
	inc.stats.TierAbstain.count(r.Trigger)
	return false, false
}
