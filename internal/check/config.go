package check

import "fmt"

// Config is the single configuration surface of the monitoring engine: one
// serialisable struct holding every knob the incremental monitor understands
// — retention policy (including commit-point cuts), parallelism and the
// log-linear fast tier. The library options (WithRetention, WithParallelism,
// WithFastTier), the verification-pipeline options in internal/core
// (WithVerifierConfig, WithDecoupledConfig and their per-knob wrappers), the
// CLI flags of cmd/stress and cmd/linmond, and the monitorapi wire protocol
// all build on this one type, so a configuration travels unchanged from a
// remote client's session-open frame to the monitor instance that serves it.
//
// The zero Config is the library default: unbounded full-witness monitoring,
// sequential engine, fast tier on. Field semantics are chosen so that every
// default is the zero value — which is also what keeps the JSON form of a
// default configuration empty ({}).
type Config struct {
	// Retain opts in to bounded-memory monitoring under Retention: committed
	// prefixes behind the cut frontier are garbage-collected, summarised as
	// the exact reachable state set. Equivalent to WithRetention.
	Retain bool `json:"retain,omitempty"`
	// Retention is the bounded-memory policy; meaningful only when Retain is
	// set (zero fields take the documented defaults). Its CommitCuts field is
	// how commit-point-order cuts are requested.
	Retention RetentionPolicy `json:"retention,omitzero"`
	// Parallelism fans segment checks and frontier enumerations across a
	// bounded worker pool of this width; 0 and 1 both mean the strictly
	// sequential engine. Equivalent to WithParallelism.
	Parallelism int `json:"parallelism,omitempty"`
	// NoFastTier disables the log-linear decision tier ahead of the exact
	// search (the tier is on by default and auto-off for models outside its
	// fragment). Inverted so the default is the zero value. Equivalent to
	// WithFastTier(false).
	NoFastTier bool `json:"no_fast_tier,omitempty"`
	// Pipeline asks the *driver* of the monitor to overlap ingest assembly
	// with the previous burst's Append: the decoupled dispatcher
	// (core.WithDecoupledPipeline) and the linmond server double-buffer
	// absorb rounds, handing the monitor off between rounds so there is
	// still exactly one driving goroutine at a time. The monitor itself
	// ignores the field — an Incremental built with Pipeline set is the
	// sequential monitor; only drivers that document pipelining act on it.
	// What holds against sequential driving on any schedule: verdicts,
	// reports and IncStats.Events, and on un-refuted streams Compactions,
	// GCRuns, DiscardedEvents, RetainedEvents and FrontierStates. The other
	// effort counters (Appends, SegChecks, SearchRebuilds, SegExplored,
	// StickyNo, …) count Appends, so they differ wherever the grouping of
	// input into Appends is timing-dependent, as linmond's absorb rounds
	// are.
	Pipeline bool `json:"pipeline,omitempty"`
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

// WithConfig applies a whole Config at once — the constructor the wire
// protocol and anything else holding a serialised configuration uses. It
// replaces the effect of all previous options; a monitor built from a Config
// is bit-identical (verdicts, stats, retained window) to one built from the
// equivalent With* options (equivalence-tested in config_test.go).
func WithConfig(c Config) IncOption {
	return func(inc *Incremental) { inc.cfg = c }
}
