package core

import (
	"testing"

	"repro/internal/check"
	"repro/internal/genlin"
	"repro/internal/impls"
	"repro/internal/spec"
)

// TestDecoupledConfigResolution: WithDecoupledConfig lands unchanged in the
// pipeline's monitor Config (verifiers=0 builds the structure without
// starting goroutines), and a later WithDecoupledConfig replaces an earlier
// one.
func TestDecoupledConfigResolution(t *testing.T) {
	obj := genlin.Linearizability(spec.Counter())
	build := func(opts ...DecoupledOption) *Decoupled {
		d := NewDecoupled(impls.NewAtomicCounter(), 2, 0, obj, nil, opts...)
		t.Cleanup(d.Close)
		return d
	}
	cfg := check.Config{Retain: true, Retention: check.RetentionPolicy{GCBatch: 2}, Parallelism: 2, NoFastTier: true}
	if got := build(WithDecoupledConfig(cfg)).monitor; got != cfg {
		t.Fatalf("WithDecoupledConfig mangled the config: %+v", got)
	}
	replaced := build(WithDecoupledConfig(cfg), WithDecoupledConfig(check.Config{Retain: true}))
	if replaced.monitor != (check.Config{Retain: true}) {
		t.Fatalf("a later WithDecoupledConfig did not replace the earlier one: %+v", replaced.monitor)
	}
}
