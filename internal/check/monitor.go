package check

import (
	"repro/internal/history"
	"repro/internal/spec"
)

// Verdict is the outcome of a monitor. Fast monitors may answer Maybe, in
// which case a complete checker must decide.
type Verdict int8

const (
	// No means provably not linearizable.
	No Verdict = iota + 1
	// Maybe means the monitor could not decide.
	Maybe
	// Yes means provably linearizable (a concrete linearization was found).
	Yes
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case No:
		return "No"
	case Maybe:
		return "Maybe"
	case Yes:
		return "Yes"
	default:
		return "invalid"
	}
}

// Monitor decides linearizability of histories for one object.
type Monitor interface {
	Name() string
	Check(h history.History) Verdict
}

// wgMonitor adapts the complete Wing–Gong checker to the Monitor interface.
type wgMonitor struct {
	m spec.Model
}

// WG returns the complete checker for m as a Monitor; it never answers Maybe.
func WG(m spec.Model) Monitor { return wgMonitor{m: m} }

func (w wgMonitor) Name() string { return "wg-" + w.m.Name() }

func (w wgMonitor) Check(h history.History) Verdict {
	if IsLinearizable(w.m, h) {
		return Yes
	}
	return No
}

// hybrid runs a fast (possibly partial) monitor first and falls back to a
// complete one on Maybe.
type hybrid struct {
	fast, full Monitor
}

// Hybrid composes a fast pre-filter with a complete fallback. The result is
// complete if full is.
func Hybrid(fast, full Monitor) Monitor { return hybrid{fast: fast, full: full} }

func (hy hybrid) Name() string { return hy.fast.Name() + "+" + hy.full.Name() }

func (hy hybrid) Check(h history.History) Verdict {
	if v := hy.fast.Check(h); v != Maybe {
		return v
	}
	return hy.full.Check(h)
}

// ForModel returns the best monitor available for the model: the log-linear
// decision tier (FastTier) decides unambiguous histories outright and only
// the ambiguous remainder reaches the complete memoised search. Models
// outside the tier's fragment get the complete search alone. The B7
// benchmarks drive this composition.
func ForModel(m spec.Model) Monitor {
	if ft := FastTier(m); ft != nil {
		return Hybrid(ft, WG(m))
	}
	return WG(m)
}
