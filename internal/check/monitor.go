package check

import (
	"repro/internal/check/loglin"
	"repro/internal/history"
	"repro/internal/spec"
)

// Verdict is the outcome of a monitor. The monitors of this package are
// complete and answer Yes or No; Maybe is the undecided value a partial
// decider reports.
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

// oneShot is the monitor ForModel returns.
type oneShot struct {
	m    spec.Model
	tier bool // the model is in the log-linear tier's fragment
}

// ForModel returns the best monitor available for the model: the log-linear
// decision tier (internal/check/loglin) decides unambiguous histories
// outright and only the ambiguous remainder reaches the complete memoised
// search. Models outside the tier's fragment get the complete search alone.
// The monitor is complete: it never answers Maybe. The B7 benchmarks drive
// it.
func ForModel(m spec.Model) Monitor { return oneShot{m: m, tier: loglin.Supported(m)} }

func (o oneShot) Name() string {
	if o.tier {
		return "loglin-" + o.m.Name() + "+wg-" + o.m.Name()
	}
	return "wg-" + o.m.Name()
}

func (o oneShot) Check(h history.History) Verdict {
	if o.tier {
		switch loglin.Decide(o.m, h).V {
		case loglin.Yes:
			return Yes
		case loglin.No:
			return No
		}
	}
	if IsLinearizable(o.m, h) {
		return Yes
	}
	return No
}
