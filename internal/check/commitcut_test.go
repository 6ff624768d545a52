package check

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// commitPolicy is the commit-point-cut policy most tests here run under:
// small batches so short streams exercise the planner, splice and collector.
var commitPolicy = RetentionPolicy{GCBatch: 16, CommitCuts: true}

// stronglyOrderedModels are the models implementing spec.StronglyOrdered.
func stronglyOrderedModels() []spec.Model {
	return []spec.Model{spec.Queue(), spec.Stack(), spec.PQueue()}
}

// driveAgainstOracle streams bursts through a retained monitor built with
// opts and the unbounded oracle monitor, failing on any verdict divergence,
// and returns the retained monitor for stat assertions.
func driveAgainstOracle(t *testing.T, m spec.Model, bursts []history.History, label string, opts ...IncOption) *Incremental {
	t.Helper()
	retained := NewIncremental(m, opts...)
	oracle := NewIncremental(m)
	for k, b := range bursts {
		vr := retained.Append(b)
		vo := oracle.Append(b)
		if vr != vo {
			t.Fatalf("%s: burst %d: retained verdict %v, unbounded %v", label, k, vr, vo)
		}
	}
	return retained
}

// TestCommitCutNeverQuiescentEquivalence is the heart of the B12 claim at
// test scale: on never-quiescent streams the commit-point-cut monitor is
// verdict-identical to the unbounded monitor for every strongly-ordered
// model — and actually cuts, carries and collects, which quiescent-cut
// retention provably cannot on this stream.
func TestCommitCutNeverQuiescentEquivalence(t *testing.T) {
	for _, m := range stronglyOrderedModels() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			h := trace.NeverQuiescent(m, 11, 5, 800)
			inc := driveAgainstOracle(t, m, splitBursts(h, 32), "correct",
				WithConfig(Config{Retain: true, Retention: commitPolicy}))
			st := inc.Stats()
			if st.CommitCuts == 0 || st.CarriedOps == 0 || st.DiscardedEvents == 0 {
				t.Fatalf("commit cuts did not engage: %+v", st)
			}
			if st.RetainedEvents >= len(h)/2 {
				t.Fatalf("window %d events on a %d-event stream: retention did not bound", st.RetainedEvents, len(h))
			}
			// The quiescent-only control must degrade on the same stream:
			// no boundary is quiescent, so nothing is ever collected.
			ctl := NewIncremental(m, WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 16}}))
			for _, b := range splitBursts(h, 32) {
				if ctl.Append(b) != Yes {
					t.Fatal("control refuted the correct stream")
				}
			}
			if cs := ctl.Stats(); cs.DiscardedEvents != 0 || cs.RetainedEvents != len(h) {
				t.Fatalf("control unexpectedly collected: %+v", cs)
			}
			// A mutated stream must refute identically.
			bad := trace.Mutate(h, 23)
			driveAgainstOracle(t, m, splitBursts(bad, 32), "mutated",
				WithConfig(Config{Retain: true, Retention: commitPolicy}))
		})
	}
}

// TestCommitCutPinnedObservation pins the soundness linchpin: a pending
// producer whose value a completed operation has observed must not be
// carried across a cut. The stream keeps exactly one operation pending — an
// Enq(1) whose value a Deq observes immediately — so every interior position
// is a cut candidate shape-wise; an unpinned (buggy) planner would commit a
// piece containing the Deq(1) but not the Enq(1), enumerate an empty
// frontier and refute the correct stream.
func TestCommitCutPinnedObservation(t *testing.T) {
	b := history.NewBuilder()
	b.Inv(0, spec.MethodEnq, 1)                     // pending producer, value 1
	b.Call(1, spec.MethodDeq, 0, spec.ValueResp(1)) // observes 1: pins the producer
	for v := int64(2); v < 40; v++ {                // interior churn, Enq(1) still pending
		b.Call(1, spec.MethodEnq, v, spec.OKResp())
		b.Call(2, spec.MethodDeq, 0, spec.ValueResp(v))
	}
	b.Ret(0, spec.OKResp())
	h := b.MustHistory(t)
	// GCBatch 1 gives the planner stride 1: a candidate at every eligible
	// position, maximal pressure on the pinning check.
	pol := RetentionPolicy{GCBatch: 1, CommitCuts: true}
	inc := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: pol}))
	for k, delta := range splitBursts(h, 2) {
		if inc.Append(delta) != Yes {
			t.Fatalf("burst %d: pinned producer mis-carried: correct stream refuted (%v)", k, inc.Err())
		}
	}
	if st := inc.Stats(); st.CarriedOps != 0 {
		t.Fatalf("the pinned producer was carried: %+v", st)
	}
}

// TestCommitCutCarriedDuplicateID: a carried producer's id survives GC, so a
// corrupt stream that re-invokes it after the cut is still rejected as a §2
// violation.
func TestCommitCutCarriedDuplicateID(t *testing.T) {
	h := trace.NeverQuiescent(spec.Queue(), 5, 5, 300)
	inc := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 8, CommitCuts: true}}))
	if inc.Append(h) != Yes {
		t.Fatal("correct stream refuted")
	}
	if inc.Stats().CommitCuts == 0 || inc.Discarded() == 0 {
		t.Fatalf("precondition: no commit cut ran: %+v", inc.Stats())
	}
	// The final chain link is still pending: it was carried by the last cut.
	// Re-invoking its id on an idle process must still be a duplicate.
	var pendingID uint64
	var pendingOp spec.Operation
	open := map[uint64]spec.Operation{}
	for _, e := range h {
		if e.Kind == history.Invoke {
			open[e.ID] = e.Op
		} else {
			delete(open, e.ID)
		}
	}
	for id, op := range open {
		pendingID, pendingOp = id, op
	}
	if inc.Append(history.History{{Kind: history.Invoke, Proc: 4, ID: pendingID, Op: pendingOp}}) != No {
		t.Fatal("duplicate id of a carried operation accepted")
	}
}

// TestCommitCutIncapableFallback: models without spec.StronglyOrdered ignore
// the CommitCuts knob bit-for-bit — same verdicts, same stats as the plain
// quiescent-cut policy.
func TestCommitCutIncapableFallback(t *testing.T) {
	for _, m := range []spec.Model{spec.Counter(), spec.Register(0), spec.Set(), spec.Consensus()} {
		h := trace.RandomLinearizable(m, 31, 3, 60)
		plain := NewIncremental(m, WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 8}}))
		knob := NewIncremental(m, WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 8, CommitCuts: true}}))
		for k, bst := range splitBursts(h, 9) {
			if plain.Append(bst) != knob.Append(bst) {
				t.Fatalf("%s: burst %d: verdicts diverged", m.Name(), k)
			}
		}
		if plain.Stats() != knob.Stats() {
			t.Fatalf("%s: stats diverged:\nplain: %+v\nknob:  %+v", m.Name(), plain.Stats(), knob.Stats())
		}
	}
}

// TestCommitCutParallelEquivalence: the parallel engine stays bit-identical
// to the sequential one under commit-point cuts (verdicts, IncStats,
// frontier, window) on the never-quiescent stream, at several widths.
func TestCommitCutParallelEquivalence(t *testing.T) {
	pol := RetentionPolicy{GCBatch: 16, CommitCuts: true}
	for _, m := range stronglyOrderedModels() {
		h := trace.NeverQuiescent(m, 17, 6, 400)
		for _, workers := range []int{2, 4} {
			label := fmt.Sprintf("%s workers=%d", m.Name(), workers)
			runEquiv(t, m, splitBursts(h, 17), &pol, workers, label)
			runEquiv(t, m, splitBursts(trace.Mutate(h, 3), 17), &pol, workers, label+" mutated")
		}
	}
}

// TestCommitCutReloadWindow: a window reload (the pipeline's out-of-order
// rebuild path) re-anchors at a commit-cut GC base whose window begins with
// carried invocations, and the reloaded monitor keeps matching the oracle.
func TestCommitCutReloadWindow(t *testing.T) {
	m := spec.Queue()
	h := trace.NeverQuiescent(m, 13, 5, 600)
	bursts := splitBursts(h, 25)
	inc := NewIncremental(m, WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 8, CommitCuts: true}}))
	oracle := NewIncremental(m)
	for k, b := range bursts {
		vr := inc.Append(b)
		vo := oracle.Append(b)
		if vr != vo {
			t.Fatalf("burst %d: %v vs %v", k, vr, vo)
		}
		if k == len(bursts)/2 {
			if inc.Discarded() == 0 || inc.Stats().CommitCuts == 0 {
				t.Fatalf("precondition: no commit-cut GC before the reload: %+v", inc.Stats())
			}
			w := append(history.History(nil), inc.History()...)
			if got := inc.ReloadWindow(w); got != vo {
				t.Fatalf("reload verdict %v, oracle %v", got, vo)
			}
		}
	}
	if inc.Verdict() != Yes {
		t.Fatal("correct stream refuted after reload")
	}
}

// FuzzCommitCuts is the native commit-point-cut fuzzer: never-quiescent and
// random (quiescing) streams, correct and mutated, at fuzzed burst sizes,
// batch sizes and worker widths — retained verdicts must match the unbounded
// monitor's and the parallel engine must match the sequential one
// stat-for-stat.
func FuzzCommitCuts(f *testing.F) {
	f.Add(uint8(0), uint8(40), uint8(9), int64(1), uint8(2), uint8(8), uint8(0))
	f.Add(uint8(1), uint8(80), uint8(17), int64(7), uint8(3), uint8(16), uint8(1))
	f.Add(uint8(2), uint8(24), uint8(3), int64(3), uint8(1), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, which, size, burst uint8, seed int64, workers, gcb, mut uint8) {
		models := stronglyOrderedModels()
		m := models[int(which)%len(models)]
		// Caps keep one input to ~a second: the fuzz worker's hang watchdog
		// kills inputs that run tens of seconds, and a 1-CPU host pays per
		// Append for the parallel monitor's pool round.
		n := 16 + int(size)%48
		c := 1 + int(burst)%24
		w := 1 + int(workers)%4
		pol := RetentionPolicy{GCBatch: 1 + int(gcb)%32, CommitCuts: true}

		check := func(h history.History, label string) {
			seq := NewIncremental(m, WithConfig(Config{Retain: true, Retention: pol}))
			par := NewIncremental(m, WithConfig(Config{Retain: true, Retention: pol, Parallelism: w}))
			oracle := NewIncremental(m)
			for k, b := range splitBursts(h, c) {
				vs, vp, vo := seq.Append(b), par.Append(b), oracle.Append(b)
				if vs != vo {
					t.Fatalf("%s: burst %d: retained %v, unbounded %v", label, k, vs, vo)
				}
				if vp != vs {
					t.Fatalf("%s: burst %d: parallel(%d) %v, sequential %v", label, k, w, vp, vs)
				}
				if ss, ps := normStats(seq.Stats()), normStats(par.Stats()); ss != ps {
					t.Fatalf("%s: burst %d: stats diverged\nseq: %+v\npar: %+v", label, k, ss, ps)
				}
			}
		}
		nq := trace.NeverQuiescent(m, seed, 5, n)
		check(nq, "never-quiescent")
		if mut%2 == 1 {
			check(trace.Mutate(nq, seed+7), "never-quiescent mutated")
		}
		// Dense random histories stay under 40 ops: the Wing–Gong search has
		// a heavy cost tail on dense random queue seeds (see the B11 notes),
		// and a tail seed beyond that can exceed the fuzz worker's hang
		// watchdog on a small host. The never-quiescent streams above have no
		// such tail (their blocks drain to empty), so they carry the size.
		rl := trace.RandomLinearizable(m, seed+1, 4, 16+n%24)
		check(rl, "random")
		if mut%2 == 0 {
			check(trace.Mutate(rl, seed+9), "random mutated")
		}
	})
}

// FuzzRetentionInterleave is the native form of TestRetentionFuzz — chunked
// appends, mid-stream full reloads and GC cycles under randomized policies,
// now including the CommitCuts knob — asserting the retained monitor matches
// IsLinearizable on the unbounded history at every step.
func FuzzRetentionInterleave(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(4), uint8(0), uint8(1))
	f.Add(uint8(3), int64(6), uint8(16), uint8(3), uint8(0))
	f.Add(uint8(7), int64(9), uint8(1), uint8(8), uint8(1))
	f.Fuzz(func(t *testing.T, which uint8, seed int64, gcb, keep, commit uint8) {
		models := fuzzModels()
		m := models[int(which)%len(models)]
		rng := rand.New(rand.NewSource(seed*1009 + int64(which)))
		h := trace.RandomLinearizable(m, seed*13+int64(which), 3, 20)
		if seed%3 == 0 {
			h = trace.Mutate(h, seed*41)
		}
		pol := RetentionPolicy{
			GCBatch:    1 + int(gcb)%32,
			KeepEvents: int(keep) % 16,
			CommitCuts: commit%2 == 1,
		}
		inc := NewIncremental(m, WithConfig(Config{Retain: true, Retention: pol}))
		prefix := 0
		for _, delta := range chunks(h, rng) {
			prefix += len(delta)
			var got Verdict
			if rng.Intn(8) == 0 {
				got = inc.Reset(append(history.History(nil), h[:prefix]...))
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
	})
}

// TestCommitCutResidencySeedAtMark pins the GC-base residency snapshot to
// the horizon position, not to GC time: the kept window here observes a
// pre-mark value (Deq -> 1) and completes an overlapping insert (Enq(7)),
// so a snapshot of the planner's totals at GC time ({7:1}) differs from the
// truth at the mark ({1:1}) — and a window reload seeded with the wrong
// multiset would make cut decisions diverge from the continuous Append
// path.
func TestCommitCutResidencySeedAtMark(t *testing.T) {
	b := history.NewBuilder()
	b.Call(0, spec.MethodEnq, 1, spec.OKResp()) // completes: mark lands after this
	b.Inv(1, spec.MethodEnq, 9)                 // pending producer across the rest
	b.Call(2, spec.MethodEnq, 7, spec.OKResp())
	b.Call(2, spec.MethodDeq, 0, spec.ValueResp(1))
	h := b.MustHistory(t)
	inc := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 1, CommitCuts: true}}))
	if inc.Append(h) != Yes {
		t.Fatalf("correct stream refuted: %v", inc.Err())
	}
	if inc.Discarded() == 0 {
		t.Fatal("precondition: GC did not run")
	}
	if got := inc.baseResident; len(got) != 1 || got[1] != 1 {
		t.Fatalf("base residency at the mark = %v, want map[1:1] (the value resident when the mark was cut)", got)
	}
	// A reload re-anchored at the base must replay to the same verdicts.
	w := append(history.History(nil), inc.History()...)
	if inc.ReloadWindow(w) != Yes {
		t.Fatalf("reload refuted: %v", inc.Err())
	}
	done := history.History{{Kind: history.Return, Proc: 1, ID: 2, Op: spec.Operation{Method: spec.MethodEnq, Arg: 9, Uniq: 2},
		Res: spec.OKResp()}}
	if inc.Append(done) != Yes {
		t.Fatal("completing the carried producer refuted")
	}
}

// TestCommitCutResidencyNoPhantom: an insert-then-observe pair wholly
// inside the kept window must net zero in the GC-base reconstruction — a
// forward-order undo clamps the insert's subtraction and leaves the
// observation as a phantom resident, which after a reload suppresses rule 3
// (and hence every queue/stack commit cut) forever.
func TestCommitCutResidencyNoPhantom(t *testing.T) {
	b := history.NewBuilder()
	b.Call(0, spec.MethodEnq, 1, spec.OKResp())     // quiescent mark lands here
	b.Inv(1, spec.MethodEnq, 9)                     // pending across the window
	b.Call(2, spec.MethodDeq, 0, spec.ValueResp(1)) // observes the pre-mark resident
	b.Call(2, spec.MethodEnq, 7, spec.OKResp())     // inserted AND observed in-window
	b.Call(2, spec.MethodDeq, 0, spec.ValueResp(7))
	h := b.MustHistory(t)
	inc := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 1, CommitCuts: true}}))
	if inc.Append(h) != Yes {
		t.Fatalf("correct stream refuted: %v", inc.Err())
	}
	if inc.Discarded() == 0 {
		t.Fatal("precondition: GC did not run")
	}
	// The GC base here is a commit-cut mark taken after Deq -> 1 (stride 1
	// finds it as soon as the structure empties), so the true horizon
	// residency is empty; the kept window holds the carried Enq(9)
	// invocation plus the complete Enq(7)/Deq -> 7 pair, whose forward-order
	// undo would clamp and leave a phantom {7:1}.
	if got := inc.baseResident; len(got) != 0 {
		t.Fatalf("base residency at the mark = %v, want empty (no phantom from the in-window pair)", got)
	}
}

// TestCommitCutReloadKeepsCutting: after a mid-stream window reload the
// monitor must keep committing commit-point cuts at the continuous path's
// pace — a wrong residency seed silently reopens the unbounded-growth hole
// while verdicts stay correct, so this pins the stats, not just verdicts.
func TestCommitCutReloadKeepsCutting(t *testing.T) {
	m := spec.Queue()
	h := trace.NeverQuiescent(m, 13, 5, 600)
	pol := RetentionPolicy{GCBatch: 8, CommitCuts: true}
	cont := NewIncremental(m, WithConfig(Config{Retain: true, Retention: pol}))
	reld := NewIncremental(m, WithConfig(Config{Retain: true, Retention: pol}))
	bursts := splitBursts(h, 25)
	var atReload int
	for k, bst := range bursts {
		if cont.Append(bst) != Yes || reld.Append(bst) != Yes {
			t.Fatalf("burst %d: correct stream refuted", k)
		}
		if k == len(bursts)/2 {
			atReload = reld.Stats().CommitCuts
			w := append(history.History(nil), reld.History()...)
			if reld.ReloadWindow(w) != Yes {
				t.Fatalf("reload refuted: %v", reld.Err())
			}
		}
	}
	if got := reld.Stats().CommitCuts; got <= atReload {
		t.Fatalf("no commit cut after the reload (%d before, %d at end; continuous path: %d) — residency seeding is blocking rule 3",
			atReload, got, cont.Stats().CommitCuts)
	}
	if w, cw := len(reld.History()), len(cont.History()); w > 4*cw+64 {
		t.Fatalf("reloaded monitor's window grew to %d events vs the continuous path's %d — retention degraded after reload", w, cw)
	}
}

// TestCommitCutObservedWhilePending: a value returned by an observation
// while its insert is still pending (linearized before returning — routine
// under real concurrency) must not become a phantom resident when the
// insert completes. The phantom would fail rule 3 forever and silently
// disable every later queue/stack commit cut — the regression here streams
// a never-quiescent chain after such a prefix and demands cuts still fire.
func TestCommitCutObservedWhilePending(t *testing.T) {
	b := history.NewBuilder()
	b.Inv(0, spec.MethodEnq, 100)
	b.Call(1, spec.MethodDeq, 0, spec.ValueResp(100)) // consumes the pending insert
	b.Ret(0, spec.OKResp())
	arg := int64(200)
	chainProc := 0
	chainArg := arg
	b.Inv(chainProc, spec.MethodEnq, chainArg)
	arg++
	for i := 0; i < 30; i++ {
		b.Call(2, spec.MethodEnq, arg, spec.OKResp())
		b.Call(2, spec.MethodDeq, 0, spec.ValueResp(arg))
		arg++
		b.Call(2, spec.MethodDeq, 0, spec.EmptyResp())
		next := 1 - chainProc
		b.Inv(next, spec.MethodEnq, arg)
		nextArg := arg
		arg++
		b.Ret(chainProc, spec.OKResp()) // the closed link linearizes here
		b.Call(2, spec.MethodDeq, 0, spec.ValueResp(chainArg))
		b.Call(2, spec.MethodDeq, 0, spec.EmptyResp())
		chainProc, chainArg = next, nextArg
	}
	h := b.MustHistory(t)
	inc := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 8, CommitCuts: true}}))
	oracle := NewIncremental(spec.Queue())
	for k, bst := range splitBursts(h, 7) {
		vr, vo := inc.Append(bst), oracle.Append(bst)
		if vr != vo {
			t.Fatalf("burst %d: retained %v, unbounded %v", k, vr, vo)
		}
	}
	if st := inc.Stats(); st.CommitCuts == 0 || st.DiscardedEvents == 0 {
		t.Fatalf("commit cuts stopped firing after an observed-while-pending insert (phantom resident): %+v", st)
	}
}

// TestResetRewindsDiscardCounters: Reset rewinds the per-kind discard
// counters with the horizon, keeping the documented alignment contract
// (Discarded()==0 implies zero response/invocation discards).
func TestResetRewindsDiscardCounters(t *testing.T) {
	inc := NewIncremental(spec.Queue(), WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 1}}))
	inc.Append(trace.RandomLinearizable(spec.Queue(), 3, 2, 40))
	if inc.DiscardedResponses() == 0 {
		t.Fatal("precondition: GC never dropped a response")
	}
	inc.Reset(nil)
	if inc.Discarded() != 0 || inc.DiscardedResponses() != 0 || len(inc.DiscardedInvocations()) != 0 {
		t.Fatalf("discard counters survived Reset: hBase=%d resp=%d inv=%v",
			inc.Discarded(), inc.DiscardedResponses(), inc.DiscardedInvocations())
	}
}

// TestFastTierCommitCutEquivalence repeats the tier-on/off sweep of
// retention_test.go under commit-point-order cuts: the planner's carried
// producers, commit cuts and GC must be bit-identical whether or not the
// log-linear tier answered the segment checks, across worker widths 1, 2
// and 4 (runTierOnOff). Strongly-ordered models only — the set has no
// producers and never takes a commit cut.
func TestFastTierCommitCutEquivalence(t *testing.T) {
	hits, cuts := 0, 0
	for _, m := range []spec.Model{spec.Queue(), spec.Stack(), spec.PQueue()} {
		for seed := int64(1); seed <= 5; seed++ {
			pol := RetentionPolicy{GCBatch: 1 + int(seed)%3, CommitCuts: true}
			h := trace.RandomLinearizable(m, seed*23, 4, 36)
			st := runTierOnOff(t, m, splitBursts(h, 3+int(seed)), pol, m.Name()+" commitcut")
			hits += st.FastTierHits
			cuts += st.CommitCuts
			st = runTierOnOff(t, m, splitBursts(trace.Mutate(h, seed*71), 3+int(seed)), pol, m.Name()+" commitcut mutated")
			hits += st.FastTierHits
		}
	}
	if hits == 0 {
		t.Fatal("the fast tier never decided a segment under commit cuts")
	}
	if cuts == 0 {
		t.Fatal("no commit cut ever fired: the sweep missed the planner interleave")
	}
}
