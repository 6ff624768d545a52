package check

import "fmt"

// Config is the single configuration surface of the monitoring engine: one
// serialisable struct holding every knob the incremental monitor understands
// — retention policy (including commit-point cuts), parallelism and the
// log-linear fast tier. WithConfig is the only monitor option; the
// verification-pipeline options in internal/core (WithVerifierConfig,
// WithDecoupledConfig), the repro facade's WithConfig, the CLI flags of
// cmd/stress and cmd/linmond, and the monitorapi wire protocol all carry this
// one type, so a configuration travels unchanged from a remote client's
// session-open frame to the monitor instance that serves it.
//
// The zero Config is the library default: unbounded full-witness monitoring,
// sequential engine, fast tier on. Field semantics are chosen so that every
// default is the zero value — which is also what keeps the JSON form of a
// default configuration empty ({}).
type Config struct {
	// Retain opts in to bounded-memory monitoring under Retention: committed
	// prefixes behind the cut frontier are garbage-collected, summarised as
	// the exact set of sequential states any of their linearizations can
	// reach.
	Retain bool `json:"retain,omitempty"`
	// Retention is the bounded-memory policy; meaningful only when Retain is
	// set (zero fields take the documented defaults). Its CommitCuts field is
	// how commit-point-order cuts are requested.
	Retention RetentionPolicy `json:"retention,omitzero"`
	// Parallelism fans segment checks and frontier enumerations across a
	// bounded worker pool of this width; 0 and 1 both mean the strictly
	// sequential engine. Verdicts and IncStats are identical to the
	// sequential engine's under any scheduling (the join commits outcomes in
	// frontier order up to the first witness), so it is purely a latency
	// knob. The fan-out needs a multi-state frontier, which only retention
	// builds; without Retain it never triggers.
	Parallelism int `json:"parallelism,omitempty"`
	// NoFastTier disables the log-linear decision tier ahead of the exact
	// search (the tier is on by default and auto-off for models outside its
	// fragment). Inverted so the default is the zero value.
	NoFastTier bool `json:"no_fast_tier,omitempty"`
}

// Validate reports whether the configuration is well-formed: no negative
// knobs, a sane parallelism width, and no retention sub-options without
// retention itself. It is the gate the wire protocol and the CLIs run before
// a Config reaches a monitor; the library constructors accept any Config and
// apply the documented defaulting instead (zero or negative values fall back
// to defaults), so Validate is about rejecting configurations that would
// silently mean something other than what they say.
func (c Config) Validate() error {
	if c.Parallelism < 0 {
		return fmt.Errorf("parallelism %d is negative", c.Parallelism)
	}
	if c.Parallelism > MaxParallelism {
		return fmt.Errorf("parallelism %d exceeds the maximum %d", c.Parallelism, MaxParallelism)
	}
	p := c.Retention
	if !c.Retain {
		if p != (RetentionPolicy{}) {
			return fmt.Errorf("retention policy set without retain")
		}
		return nil
	}
	if p.KeepEvents < 0 {
		return fmt.Errorf("retention.keep_events %d is negative", p.KeepEvents)
	}
	if p.GCBatch < 0 {
		return fmt.Errorf("retention.gc_batch %d is negative", p.GCBatch)
	}
	if p.StateBudget < 0 {
		return fmt.Errorf("retention.state_budget %d is negative", p.StateBudget)
	}
	if p.MaxFrontierStates < 0 {
		return fmt.Errorf("retention.max_frontier_states %d is negative", p.MaxFrontierStates)
	}
	return nil
}

// MaxParallelism bounds Config.Parallelism: wider pools than this are
// certainly a configuration error (the pool is per-monitor; cross-shard
// fan-out multiplies it).
const MaxParallelism = 1024

// WithConfig configures a monitor with a whole Config. A later WithConfig
// replaces an earlier one.
func WithConfig(c Config) IncOption {
	return func(inc *Incremental) { inc.cfg = c }
}
