package check

import (
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// This file covers the three-way interaction of Config.Retain,
// Config.Parallelism and StateBudget overflow: when the exact frontier
// enumeration at a cut exceeds StateBudget or MaxFrontierStates, the cut is
// skipped and retried at a later boundary (advanceCuts drops the wedged
// boundary) — and that skip/retry interleave must be bit-identical across
// worker widths, because the parallel engine fans the very enumerations that
// overflow out across the pool.

// runBudgetWidths drives the burst stream through the unbounded monitor and
// retained monitors at widths 1, 2 and 4 under pol, failing on any verdict
// divergence from the unbounded monitor or any stat/retention divergence
// across widths.
func runBudgetWidths(t *testing.T, m spec.Model, bursts []history.History, pol RetentionPolicy, label string) IncStats {
	t.Helper()
	widths := []int{1, 2, 4}
	unb := NewIncremental(m)
	ms := make([]*Incremental, len(widths))
	for i, w := range widths {
		ms[i] = NewIncremental(m, WithConfig(Config{Retain: true, Retention: pol, Parallelism: w}))
	}
	for k, b := range bursts {
		want := unb.Append(b)
		base := ms[0].Append(b)
		if base != want {
			t.Fatalf("%s: burst %d: width-1 retained verdict %v, unbounded %v", label, k, base, want)
		}
		for i := 1; i < len(widths); i++ {
			if got := ms[i].Append(b); got != base {
				t.Fatalf("%s: burst %d: width-%d verdict %v, width-1 %v", label, k, widths[i], got, base)
			}
			if s0, si := normStats(ms[0].Stats()), normStats(ms[i].Stats()); s0 != si {
				t.Fatalf("%s: burst %d: width-%d stats diverged\nw1: %+v\nw%d: %+v",
					label, k, widths[i], s0, widths[i], si)
			}
			if ms[0].FrontierSize() != ms[i].FrontierSize() ||
				ms[0].Discarded() != ms[i].Discarded() ||
				len(ms[0].History()) != len(ms[i].History()) {
				t.Fatalf("%s: burst %d: width-%d retention diverged (frontier %d vs %d, discarded %d vs %d, window %d vs %d)",
					label, k, widths[i], ms[0].FrontierSize(), ms[i].FrontierSize(),
					ms[0].Discarded(), ms[i].Discarded(), len(ms[0].History()), len(ms[i].History()))
			}
		}
	}
	return ms[0].Stats()
}

// budgetPolicy derives a deliberately tiny enumeration budget from fuzz
// bytes, so cuts overflow and the skip/retry interleave actually runs.
func budgetPolicy(gcb, budget, maxf, commit uint8) RetentionPolicy {
	return RetentionPolicy{
		GCBatch:           1 + int(gcb)%16,
		StateBudget:       1 + int(budget)%48,
		MaxFrontierStates: 1 + int(maxf)%4,
		CommitCuts:        commit%2 == 1,
	}
}

// FuzzRetentionBudgetWidths is the native fuzzer for the interleave; its
// seeds double as the deterministic tier-1 coverage.
func FuzzRetentionBudgetWidths(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(48), uint8(7), int64(1), uint8(2), uint8(4), uint8(1), uint8(0))
	f.Add(uint8(1), uint8(4), uint8(60), uint8(5), int64(9), uint8(8), uint8(0), uint8(2), uint8(1))
	f.Add(uint8(3), uint8(2), uint8(30), uint8(11), int64(3), uint8(15), uint8(30), uint8(0), uint8(0))
	f.Add(uint8(7), uint8(4), uint8(72), uint8(1), int64(5), uint8(3), uint8(12), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, which, procs, size, burst uint8, seed int64, gcb, budget, maxf, commit uint8) {
		models := fuzzModels()
		m := models[int(which)%len(models)]
		p := 2 + int(procs)%4
		// Ops stay under 40: dense random histories at higher counts hit the
		// Wing–Gong heavy cost tail (B11 notes) and three retained monitors
		// plus the unbounded oracle multiply it past the fuzz worker's hang
		// watchdog on small hosts.
		n := 8 + int(size)%32
		c := 1 + int(burst)%16
		pol := budgetPolicy(gcb, budget, maxf, commit)
		h := trace.RandomLinearizable(m, seed, p, n)
		runBudgetWidths(t, m, splitBursts(h, c), pol, "fuzz")
		runBudgetWidths(t, m, splitBursts(trace.Mutate(h, seed+5), c), pol, "fuzz mutated")
	})
}

// TestRetentionBudgetOverflowWidths sweeps seeds until the overflow path has
// demonstrably run (FrontierOverflows > 0 on concurrent streams under a
// one-configuration budget), so the interleave the fuzzer explores is
// guaranteed exercised by plain `go test` as well.
func TestRetentionBudgetOverflowWidths(t *testing.T) {
	overflows := 0
	for _, m := range []spec.Model{spec.Queue(), spec.Stack(), spec.PQueue(), spec.Set()} {
		for seed := int64(1); seed <= 6; seed++ {
			pol := RetentionPolicy{GCBatch: 4, StateBudget: 1, MaxFrontierStates: 2,
				CommitCuts: seed%2 == 0}
			h := trace.RandomLinearizable(m, seed*19, 4, 48)
			st := runBudgetWidths(t, m, splitBursts(h, 5), pol, m.Name())
			overflows += st.FrontierOverflows
		}
	}
	if overflows == 0 {
		t.Fatal("no cut ever overflowed: the budget interleave was not exercised")
	}
}
