package check

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// tightPolicy GCs as aggressively as possible so short tests exercise the
// collector.
var tightPolicy = RetentionPolicy{GCBatch: 1}

func oneOp(proc int, id uint64, op spec.Operation, res spec.Response) history.History {
	op.Uniq = id
	return history.History{
		{Kind: history.Invoke, Proc: proc, ID: id, Op: op},
		{Kind: history.Return, Proc: proc, ID: id, Op: op, Res: res},
	}
}

// TestRetainedEquivalence: the retained monitor's verdict after every delta
// equals the full checker's verdict on the corresponding unbounded prefix,
// while the committed prefix is being garbage-collected underneath it.
func TestRetainedEquivalence(t *testing.T) {
	models := []spec.Model{
		spec.Queue(), spec.Stack(), spec.Counter(), spec.Register(0), spec.Set(), spec.PQueue(),
	}
	for _, m := range models {
		for seed := int64(1); seed <= 6; seed++ {
			h := trace.RandomLinearizable(m, seed, 3, 24)
			if seed%2 == 0 {
				h = trace.Mutate(h, seed*31)
			}
			rng := rand.New(rand.NewSource(seed * 7))
			inc := NewIncremental(m, WithConfig(Config{Retain: true, Retention: tightPolicy}))
			prefix := 0
			for _, delta := range chunks(h, rng) {
				prefix += len(delta)
				got := inc.Append(delta)
				want := Yes
				if !IsLinearizable(m, h[:prefix]) {
					want = No
				}
				if got != want {
					t.Fatalf("%s seed=%d prefix=%d: retained=%v full=%v\nhistory:\n%s",
						m.Name(), seed, prefix, got, want, h[:prefix].String())
				}
			}
			st := inc.Stats()
			if inc.Discarded()+st.RetainedEvents != len(h) && inc.Verdict() == Yes {
				t.Fatalf("%s seed=%d: discarded %d + retained %d != %d events",
					m.Name(), seed, inc.Discarded(), st.RetainedEvents, len(h))
			}
		}
	}
}

// TestRetentionFrontierMultiState: GC at a quiescent cut must summarise the
// prefix as the exact SET of reachable states. Concurrent Enq(1) and Enq(2)
// leave the queue as [1,2] or [2,1]; after the prefix is discarded, a suffix
// explained only by the non-witness order must still be accepted, and a
// suffix explained by neither refuted.
func TestRetentionFrontierMultiState(t *testing.T) {
	concurrent := history.History{
		{Kind: history.Invoke, Proc: 0, ID: 1, Op: spec.Operation{Method: spec.MethodEnq, Arg: 1, Uniq: 1}},
		{Kind: history.Invoke, Proc: 1, ID: 2, Op: spec.Operation{Method: spec.MethodEnq, Arg: 2, Uniq: 2}},
		{Kind: history.Return, Proc: 0, ID: 1, Op: spec.Operation{Method: spec.MethodEnq, Arg: 1, Uniq: 1}, Res: spec.OKResp()},
		{Kind: history.Return, Proc: 1, ID: 2, Op: spec.Operation{Method: spec.MethodEnq, Arg: 2, Uniq: 2}, Res: spec.OKResp()},
	}
	deq := func(id uint64, val int64) history.History {
		return oneOp(0, id, spec.Operation{Method: spec.MethodDeq}, spec.ValueResp(val))
	}

	inc := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: tightPolicy}))
	if inc.Append(concurrent) != Yes {
		t.Fatal("concurrent enqueues refuted")
	}
	if inc.Discarded() != len(concurrent) {
		t.Fatalf("committed quiescent prefix not collected: discarded=%d", inc.Discarded())
	}
	if inc.FrontierSize() != 2 {
		t.Fatalf("frontier must carry both enqueue orders, got %d states", inc.FrontierSize())
	}
	if inc.Append(deq(3, 2)) != Yes {
		t.Fatal("Deq()=2 refuted — non-witness order lost by GC")
	}
	if inc.Append(deq(4, 1)) != Yes {
		t.Fatal("Deq()=1 after Deq()=2 refuted")
	}

	bad := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: tightPolicy}))
	bad.Append(concurrent)
	if bad.Append(deq(3, 3)) != No {
		t.Fatal("Deq()=3 accepted — GC made refutation unsound")
	}
	bad2 := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: tightPolicy}))
	bad2.Append(concurrent)
	bad2.Append(deq(3, 1))
	if bad2.Append(deq(4, 2)) != Yes {
		t.Fatal("the witness order itself must also survive")
	}
	if bad2.Append(deq(5, 9)) != No {
		t.Fatal("dequeue from empty queue accepted")
	}
}

// TestRetentionBoundedMemory: on a long stream with frequent quiescence the
// retained window stays bounded by the policy, not by the history length, and
// the frontier state still refutes a stale suffix.
func TestRetentionBoundedMemory(t *testing.T) {
	const ops = 5000
	m := spec.Counter()
	inc := NewIncremental(m, WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 32}}))
	var id uint64
	maxRetained := 0
	for i := 0; i < ops; i++ {
		id++
		if inc.Append(oneOp(i%3, id, spec.Operation{Method: spec.MethodInc}, spec.OKResp())) != Yes {
			t.Fatalf("append %d refuted", i)
		}
		if r := inc.Stats().RetainedEvents; r > maxRetained {
			maxRetained = r
		}
	}
	if bound := 2 * (32 + 8); maxRetained > bound {
		t.Fatalf("retained window %d events exceeds policy bound %d", maxRetained, bound)
	}
	st := inc.Stats()
	if st.GCRuns == 0 || st.DiscardedEvents < 2*ops-200 {
		t.Fatalf("GC not keeping up: runs=%d discarded=%d of %d events", st.GCRuns, st.DiscardedEvents, 2*ops)
	}
	// The frontier state must still summarise all 5000 increments exactly.
	id++
	if inc.Append(oneOp(0, id, spec.Operation{Method: spec.MethodRead}, spec.ValueResp(ops))) != Yes {
		t.Fatal("true count refuted — frontier state lost by GC")
	}
	id++
	if inc.Append(oneOp(0, id, spec.Operation{Method: spec.MethodRead}, spec.ValueResp(3))) != No {
		t.Fatal("stale read accepted — GC unsound")
	}
	// Sticky No freezes the window: memory stays bounded on a dead stream.
	frozen := inc.Stats().RetainedEvents
	for i := 0; i < 100; i++ {
		id++
		inc.Append(oneOp(0, id, spec.Operation{Method: spec.MethodInc}, spec.OKResp()))
	}
	if inc.Stats().RetainedEvents != frozen {
		t.Fatalf("window grew after the verdict froze: %d -> %d events",
			frozen, inc.Stats().RetainedEvents)
	}
}

// TestResetKeepsStats: reset reloads the monitor but must not discard the
// accumulated pipeline counters — the decoupled dispatcher reports lifetime
// totals across rebuild-triggered reloads. Covers both the linearizable and
// the ill-formed reload paths.
func TestResetKeepsStats(t *testing.T) {
	m := spec.Queue()
	inc := NewIncremental(m)
	h := trace.RandomLinearizable(m, 3, 2, 10)
	rng := rand.New(rand.NewSource(9))
	for _, delta := range chunks(h, rng) {
		inc.Append(delta)
	}
	before := inc.Stats()
	if before.Appends == 0 || before.Events != len(h) {
		t.Fatalf("bad precondition: %+v", before)
	}
	if got, want := inc.reset(h), IsLinearizable(m, h); (got == Yes) != want {
		t.Fatalf("reset verdict %v, full %v", got, want)
	}
	after := inc.Stats()
	if after.Appends != before.Appends+1 {
		t.Fatalf("Appends reset: %d -> %d", before.Appends, after.Appends)
	}
	if after.Events != before.Events+len(h) {
		t.Fatalf("Events reset: %d -> %d", before.Events, after.Events)
	}
	if after.Resets != before.Resets+1 {
		t.Fatalf("Resets not counted: %d -> %d", before.Resets, after.Resets)
	}
	if after.SegChecks < before.SegChecks {
		t.Fatalf("SegChecks went backwards: %d -> %d", before.SegChecks, after.SegChecks)
	}

	// Ill-formed reload: verdict No, error surfaced, stats still cumulative.
	ill := history.History{
		{Kind: history.Return, Proc: 0, ID: 99, Op: spec.Operation{Method: spec.MethodDeq, Uniq: 99}, Res: spec.ValueResp(1)},
	}
	if inc.reset(ill) != No || inc.Err() == nil {
		t.Fatalf("ill-formed reload: verdict=%v err=%v", inc.Verdict(), inc.Err())
	}
	final := inc.Stats()
	if final.Resets != after.Resets+1 || final.Appends != after.Appends+1 {
		t.Fatalf("stats dropped on ill-formed reload: %+v -> %+v", after, final)
	}
}

// TestReloadWindowKeepsBase: after GC, reloading the retained window keeps
// the GC base, so the reloaded monitor still knows the discarded prefix's
// effect.
func TestReloadWindowKeepsBase(t *testing.T) {
	m := spec.Counter()
	inc := NewIncremental(m, WithConfig(Config{Retain: true, Retention: tightPolicy}))
	var id uint64
	for i := 0; i < 50; i++ {
		id++
		inc.Append(oneOp(0, id, spec.Operation{Method: spec.MethodInc}, spec.OKResp()))
	}
	if inc.Discarded() == 0 {
		t.Fatal("precondition: nothing collected")
	}
	window := append(history.History(nil), inc.History()...)
	if inc.ReloadWindow(window) != Yes {
		t.Fatal("reloading the same window refuted")
	}
	id++
	if inc.Append(oneOp(0, id, spec.Operation{Method: spec.MethodRead}, spec.ValueResp(50))) != Yes {
		t.Fatal("true count refuted after window reload — base lost")
	}
	id++
	if inc.Append(oneOp(0, id, spec.Operation{Method: spec.MethodRead}, spec.ValueResp(0))) != No {
		t.Fatal("stale read accepted after window reload")
	}
}

// TestRetentionFuzz interleaves chunked appends, full reloads and GC cycles
// (driven by randomized policies) and asserts the retained monitor matches
// IsLinearizable on the unbounded history at every step.
func TestRetentionFuzz(t *testing.T) {
	models := []spec.Model{spec.Queue(), spec.Counter(), spec.Register(0), spec.Stack()}
	for _, m := range models {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed*1009 + 7))
			h := trace.RandomLinearizable(m, seed*13, 3, 20)
			if seed%3 == 0 {
				h = trace.Mutate(h, seed*41)
			}
			pol := RetentionPolicy{
				GCBatch: 1 + rng.Intn(32),
			}
			inc := NewIncremental(m, WithConfig(Config{Retain: true, Retention: pol}))
			prefix := 0
			for _, delta := range chunks(h, rng) {
				prefix += len(delta)
				var got Verdict
				if rng.Intn(8) == 0 {
					// Full reload mid-stream, as the pipeline does on
					// out-of-order publication.
					got = inc.reset(append(history.History(nil), h[:prefix]...))
				} else {
					got = inc.Append(delta)
				}
				want := Yes
				if !IsLinearizable(m, h[:prefix]) {
					want = No
				}
				if got != want {
					t.Fatalf("%s seed=%d prefix=%d policy=%+v: retained=%v full=%v\nhistory:\n%s",
						m.Name(), seed, prefix, pol, got, want, h[:prefix].String())
				}
			}
		}
	}
}

// TestFinalStates pins the exact-frontier enumerator.
func TestFinalStates(t *testing.T) {
	q := spec.Queue()
	if states, ok := newSearchArena().FinalStates(q.Init(), nil, 1000, 8); !ok || len(states) != 1 {
		t.Fatalf("empty history: states=%d ok=%v", len(states), ok)
	}
	concurrent := history.History{
		{Kind: history.Invoke, Proc: 0, ID: 1, Op: spec.Operation{Method: spec.MethodEnq, Arg: 1, Uniq: 1}},
		{Kind: history.Invoke, Proc: 1, ID: 2, Op: spec.Operation{Method: spec.MethodEnq, Arg: 2, Uniq: 2}},
		{Kind: history.Return, Proc: 0, ID: 1, Op: spec.Operation{Method: spec.MethodEnq, Arg: 1, Uniq: 1}, Res: spec.OKResp()},
		{Kind: history.Return, Proc: 1, ID: 2, Op: spec.Operation{Method: spec.MethodEnq, Arg: 2, Uniq: 2}, Res: spec.OKResp()},
	}
	states, ok := newSearchArena().FinalStates(q.Init(), concurrent, 1000, 8)
	if !ok || len(states) != 2 {
		t.Fatalf("concurrent enqueues: states=%d ok=%v, want 2", len(states), ok)
	}
	sequential := history.History{
		{Kind: history.Invoke, Proc: 0, ID: 1, Op: spec.Operation{Method: spec.MethodEnq, Arg: 1, Uniq: 1}},
		{Kind: history.Return, Proc: 0, ID: 1, Op: spec.Operation{Method: spec.MethodEnq, Arg: 1, Uniq: 1}, Res: spec.OKResp()},
		{Kind: history.Invoke, Proc: 0, ID: 2, Op: spec.Operation{Method: spec.MethodEnq, Arg: 2, Uniq: 2}},
		{Kind: history.Return, Proc: 0, ID: 2, Op: spec.Operation{Method: spec.MethodEnq, Arg: 2, Uniq: 2}, Res: spec.OKResp()},
	}
	if states, ok := newSearchArena().FinalStates(q.Init(), sequential, 1000, 8); !ok || len(states) != 1 {
		t.Fatalf("sequential enqueues: states=%d ok=%v, want 1", len(states), ok)
	}
	// Pending op: not a quiescent cut.
	if _, ok := newSearchArena().FinalStates(q.Init(), concurrent[:3], 1000, 8); ok {
		t.Fatal("non-quiescent history accepted")
	}
	// Budget exhaustion reports failure rather than approximating.
	if _, ok := newSearchArena().FinalStates(q.Init(), concurrent, 1, 8); ok {
		t.Fatal("budget of 1 cannot enumerate two enqueues")
	}
	// A state with no linearization contributes an empty (exact) set.
	full := spec.Counter()
	bad := oneOp(0, 1, spec.Operation{Method: spec.MethodRead}, spec.ValueResp(7))
	if states, ok := newSearchArena().FinalStates(full.Init(), bad, 1000, 8); !ok || len(states) != 0 {
		t.Fatalf("unlinearizable history: states=%d ok=%v, want empty exact set", len(states), ok)
	}
}

// TestPersistentSearchResume: a clean burst that keeps linearizing resumes
// the persistent search instead of re-running from the frontier.
func TestPersistentSearchResume(t *testing.T) {
	m := spec.Counter()
	inc := NewIncremental(m)
	// Keep one operation pending forever so no quiescent cut ever commits:
	// without search persistence every append would re-run the whole segment.
	inc.Append(history.History{
		{Kind: history.Invoke, Proc: 9, ID: 999, Op: spec.Operation{Method: spec.MethodInc, Uniq: 999}},
	})
	var id uint64
	for i := 0; i < 200; i++ {
		id++
		if inc.Append(oneOp(0, id, spec.Operation{Method: spec.MethodInc}, spec.OKResp())) != Yes {
			t.Fatalf("append %d refuted", i)
		}
	}
	st := inc.Stats()
	if st.Compactions != 0 {
		t.Fatalf("pending op should block compaction, got %d", st.Compactions)
	}
	if st.SearchResumes < 190 {
		t.Fatalf("expected resumed appends, got resumes=%d rebuilds=%d", st.SearchResumes, st.SearchRebuilds)
	}
	if st.SearchRebuilds > 2 {
		t.Fatalf("clean stream should not rebuild the search, got %d", st.SearchRebuilds)
	}
}

// TestRetentionOverflowRecovers: a cut whose exact frontier set exceeds the
// policy cap is skipped — never approximated — and dropped so the collector
// does not wedge re-enumerating it; a later boundary where the state set has
// converged again resumes GC.
func TestRetentionOverflowRecovers(t *testing.T) {
	m := spec.Queue()
	inc := NewIncremental(m, WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 1, MaxFrontierStates: 2}}))
	enq := func(proc int, id uint64, v int64) (history.Event, history.Event) {
		op := spec.Operation{Method: spec.MethodEnq, Arg: v, Uniq: id}
		return history.Event{Kind: history.Invoke, Proc: proc, ID: id, Op: op},
			history.Event{Kind: history.Return, Proc: proc, ID: id, Op: op, Res: spec.OKResp()}
	}
	// Three concurrent enqueues: 6 reachable orders, up to 6 distinct queue
	// states at the quiescent cut — over the cap of 2.
	var burst history.History
	var rets history.History
	for p := 0; p < 3; p++ {
		inv, ret := enq(p, uint64(p+1), int64(p+1))
		burst = append(burst, inv)
		rets = append(rets, ret)
	}
	burst = append(burst, rets...)
	if inc.Append(burst) != Yes {
		t.Fatal("concurrent enqueues refuted")
	}
	st := inc.Stats()
	if st.FrontierOverflows == 0 || st.GCRuns != 0 {
		t.Fatalf("cut with 6 states must overflow a cap of 2 without collecting: %+v", st)
	}
	// Dequeuing pins the first element: the state set converges to 2 orders,
	// the next boundary fits, and the collector resumes.
	if inc.Append(oneOp(0, 10, spec.Operation{Method: spec.MethodDeq}, spec.ValueResp(1))) != Yes {
		t.Fatal("Deq()=1 refuted")
	}
	st = inc.Stats()
	if st.GCRuns == 0 || inc.Discarded() == 0 {
		t.Fatalf("collector still wedged after the state set converged: %+v", st)
	}
	if inc.Append(oneOp(0, 11, spec.Operation{Method: spec.MethodDeq}, spec.ValueResp(3))) != Yes {
		t.Fatal("Deq()=3 refuted — non-witness order lost")
	}
	if inc.Append(oneOp(0, 12, spec.Operation{Method: spec.MethodDeq}, spec.ValueResp(5))) != No {
		t.Fatal("phantom dequeue accepted after overflow recovery")
	}
}

// normTierStats zeroes the fields that legitimately differ between a tier-on
// and a tier-off run: the tier's own counters, and the persistent-search
// counters for the work the tier spared (resumes, rebuilds, explored
// configurations — the search the tier answered for simply never ran), plus
// ParallelRounds as in normStats. Every other counter — verdicts, segment
// checks, compactions, commit cuts, GC and frontier gauges — must be
// bit-identical: a tier answer leaves retention and commit-cut bookkeeping
// exactly as if the tier never existed.
func normTierStats(s IncStats) IncStats {
	s.FastTierHits, s.FastTierFallbacks, s.TierAbstain = 0, 0, TierAbstentions{}
	s.SearchResumes, s.SearchRebuilds, s.SegExplored = 0, 0, 0
	s.ParallelRounds = 0
	return s
}

// runTierOnOff drives the burst stream through paired tier-on/tier-off
// retained monitors at widths 1, 2 and 4 under pol — the same drive shape as
// runBudgetWidths — failing on any divergence of verdict, frontier size, GC
// horizon, retained window or normalized stats within a pair.
func runTierOnOff(t *testing.T, m spec.Model, bursts []history.History, pol RetentionPolicy, label string) IncStats {
	t.Helper()
	widths := []int{1, 2, 4}
	type pairMon struct{ on, off *Incremental }
	pairs := make([]pairMon, len(widths))
	for i, w := range widths {
		cfg := Config{Retain: true, Retention: pol}
		if w > 1 {
			cfg.Parallelism = w
		}
		offCfg := cfg
		offCfg.NoFastTier = true
		pairs[i] = pairMon{
			on:  NewIncremental(m, WithConfig(cfg)),
			off: NewIncremental(m, WithConfig(offCfg)),
		}
	}
	for k, b := range bursts {
		for i, w := range widths {
			von, voff := pairs[i].on.Append(b), pairs[i].off.Append(b)
			if von != voff {
				t.Fatalf("%s: burst %d width %d: tier-on verdict %v, tier-off %v", label, k, w, von, voff)
			}
			on, off := pairs[i].on, pairs[i].off
			if on.FrontierSize() != off.FrontierSize() ||
				on.Discarded() != off.Discarded() ||
				len(on.History()) != len(off.History()) {
				t.Fatalf("%s: burst %d width %d: retention diverged (frontier %d vs %d, discarded %d vs %d, window %d vs %d)",
					label, k, w, on.FrontierSize(), off.FrontierSize(),
					on.Discarded(), off.Discarded(), len(on.History()), len(off.History()))
			}
			if son, soff := normTierStats(on.Stats()), normTierStats(off.Stats()); son != soff {
				t.Fatalf("%s: burst %d width %d: stats diverged beyond the tier/search counters\non:  %+v\noff: %+v",
					label, k, w, son, soff)
			}
		}
	}
	return pairs[0].on.Stats()
}

// TestFastTierRetentionEquivalence sweeps the supported models through
// retained streams (legal and mutated) with the log-linear tier on and off:
// everything observable except the tier/search counters must match, and the
// tier must demonstrably have fired somewhere in the sweep.
func TestFastTierRetentionEquivalence(t *testing.T) {
	hits := 0
	for _, m := range []spec.Model{spec.Queue(), spec.Stack(), spec.Set(), spec.PQueue()} {
		for seed := int64(1); seed <= 5; seed++ {
			pol := RetentionPolicy{GCBatch: 1 + int(seed)%4}
			h := trace.RandomLinearizable(m, seed*13, 3, 30)
			st := runTierOnOff(t, m, splitBursts(h, 4+int(seed)), pol, m.Name())
			hits += st.FastTierHits
			st = runTierOnOff(t, m, splitBursts(trace.Mutate(h, seed*59), 4+int(seed)), pol, m.Name()+" mutated")
			hits += st.FastTierHits
		}
	}
	if hits == 0 {
		t.Fatal("the fast tier never decided a segment across the whole sweep")
	}
	// The frontier workload, in both reveal orders: six live states after
	// every ambiguity burst, five of which the tier must refute.
	for _, revealFirst := range []bool{false, true} {
		runTierOnOff(t, spec.Queue(), trace.FrontierRounds(4, revealFirst), RetentionPolicy{GCBatch: 32},
			fmt.Sprintf("frontier revealFirst=%v", revealFirst))
	}
}
