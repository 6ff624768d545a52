// Package repro is a Go reproduction of "Asynchronous Wait-Free Runtime
// Verification and Enforcement of Linearizability" (Castañeda and Rodríguez,
// PODC 2023; arXiv:2301.02638).
//
// The package is the public facade over the internal machinery:
//
//   - SelfEnforce wraps any concurrent object implementation into the
//     paper's self-enforced implementation V_{O,A} (Figure 11): every
//     non-ERROR response is runtime verified to be linearizable, using only
//     read/write base objects and wait-free code, and an ERROR comes with a
//     certified witness history.
//   - NewDRV (Figure 7) and NewVerifier (Figure 10) expose the two layers
//     separately; NewDecoupled (Figure 12) separates producers from
//     dedicated verifier goroutines.
//   - IsLinearizable and Linearization decide linearizability of explicit
//     histories (the predicate P_O of §3).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record.
package repro

import (
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/genlin"
	"repro/internal/history"
	"repro/internal/impls"
	"repro/internal/spec"
)

// Re-exported core vocabulary. These are aliases, so values flow freely
// between the facade and the internal packages.
type (
	// Operation describes one high-level operation invocation.
	Operation = spec.Operation
	// Response is a high-level operation's result.
	Response = spec.Response
	// Model is a sequential specification (Definition 4.1).
	Model = spec.Model
	// History is a finite sequence of invocation/response events (§2).
	History = history.History
	// Event is one invocation or response.
	Event = history.Event
	// Object is an abstract object of the class GenLin (§7.1).
	Object = genlin.Object
	// Implementation is a concurrent object under inspection (the paper's
	// black box A).
	Implementation = core.Implementation
	// Report is an (ERROR, witness) report.
	Report = core.Report
	// Enforced is the self-enforced implementation V_{O,A} (Figure 11).
	Enforced = core.Enforced
	// Verifier is the wait-free predictive verifier V_O (Figure 10).
	Verifier = core.Verifier
	// Decoupled is the decoupled variant D_{O,A} (Figure 12).
	Decoupled = core.Decoupled
	// DRV is an implementation A* in the class DRV (Figure 7).
	DRV = core.DRV
	// View is a view λ (§7.3).
	View = core.View
	// Builder constructs histories programmatically.
	Builder = history.Builder
)

// Sequential models of the paper's objects (Theorem 5.1's list).
var (
	Queue     = spec.Queue
	Stack     = spec.Stack
	Set       = spec.Set
	PQueue    = spec.PQueue
	Counter   = spec.Counter
	Register  = spec.Register
	Consensus = spec.Consensus
	// ModelByName resolves a model from its name ("queue", "stack", ...).
	ModelByName = spec.ByName
)

// NewBuilder returns an empty history builder.
func NewBuilder() *Builder { return history.NewBuilder() }

// Linearizability returns the GenLin object of all histories linearizable
// with respect to m (Remark 7.1, Lemma 7.1).
func Linearizability(m Model) Object { return genlin.Linearizability(m) }

// ConsensusTask returns the one-shot consensus task as a GenLin object
// (§9.3).
func ConsensusTask() Object { return genlin.ConsensusTask() }

// IsLinearizable decides whether h is linearizable with respect to m
// (Definition 4.2). This is the locally computable predicate P_O of §3.
func IsLinearizable(m Model, h History) bool { return check.IsLinearizable(m, h) }

// Linearization returns a sequential witness order for h when it is
// linearizable with respect to m.
func Linearization(m Model, h History) ([]check.LinOp, bool) {
	r := check.Linearizable(m, h)
	return r.Linearization, r.Ok
}

// SelfEnforce wraps an arbitrary implementation of the sequential object m
// for n processes into the paper's self-enforced implementation (Figure 11).
// Apply on the result either returns a runtime-verified response or an ERROR
// report with a certified witness; Certify returns an audit certificate at
// any time (Theorem 8.2).
func SelfEnforce(inner Implementation, n int, m Model) *Enforced {
	return core.NewEnforced(inner, n, genlin.Linearizability(m), nil)
}

// SelfEnforceObject is SelfEnforce for an arbitrary GenLin object (e.g. a
// task from ConsensusTask).
func SelfEnforceObject(inner Implementation, n int, obj Object) *Enforced {
	return core.NewEnforced(inner, n, obj, nil)
}

// NewDRV wraps an implementation into its DRV counterpart A* (Figure 7).
func NewDRV(inner Implementation, n int) *DRV { return core.NewDRV(inner, n) }

// NewVerifier builds the wait-free predictive verifier V_O over A*
// (Figure 10).
func NewVerifier(drv *DRV, obj Object) *Verifier { return core.NewVerifier(drv, obj) }

// NewDecoupled builds the decoupled self-enforced implementation D_{O,A}
// (Figure 12) with the given number of verifier goroutines (at least 1 for
// any verification to happen; 0 disables monitoring entirely). The verifiers
// run the incremental sharded pipeline of DESIGN.md §2 (delta checking with
// deduplicated reports — one per violation); onReport is called from
// verifier goroutines. Close it when done: it first drains and verifies
// everything published. Options: WithRetention bounds the pipeline's memory
// to the monitoring window (DESIGN.md §2b).
func NewDecoupled(inner Implementation, n, verifiers int, m Model, onReport func(Report), opts ...DecoupledOption) *Decoupled {
	return core.NewDecoupled(inner, n, verifiers, genlin.Linearizability(m), onReport, opts...)
}

// DecoupledOption configures NewDecoupled.
type DecoupledOption = core.DecoupledOption

// RetentionPolicy bounds a monitor's memory; zero values take defaults. See
// check.RetentionPolicy for the trade-offs.
type RetentionPolicy = check.RetentionPolicy

// WithRetention makes the decoupled verification pipeline garbage-collect
// committed history behind its quiescent-cut frontier, keeping memory
// O(window) instead of O(history) with verdicts unchanged (DESIGN.md §2b).
func WithRetention(p RetentionPolicy) DecoupledOption {
	return core.WithDecoupledConfig(check.Config{Retain: true, Retention: p})
}

// Reference implementations of the paper's objects, usable as the black box
// A in examples and tests.
var (
	NewMSQueue        = impls.NewMSQueue
	NewTreiberStack   = impls.NewTreiberStack
	NewAtomicCounter  = impls.NewAtomicCounter
	NewAtomicRegister = impls.NewAtomicRegister
	NewCASConsensus   = impls.NewCASConsensus
	NewHMSet          = impls.NewHMSet
	NewMutexPQ        = impls.NewMutexPQ
	// ImplForModel returns the natural lock-free implementation of a model.
	ImplForModel = impls.ForModel
)
