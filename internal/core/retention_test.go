package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/genlin"
	"repro/internal/impls"
	"repro/internal/spec"
	"repro/internal/trace"
)

// tightRetention GCs as aggressively as possible so short tests exercise the
// collector.
var tightRetention = check.RetentionPolicy{GCBatch: 1}

// driveOne drives one pipeline through the scripted schedule and returns the
// per-publication verdicts. Each pipeline gets its own harness: the schedule
// is deterministic, so two harnesses produce identical histories, while the
// retained pipeline stays free to truncate the announce lists it owns
// without sabotaging the other pipeline's rebuilds.
func driveOne(seed int64, faulty bool, iv *IncVerifier) []check.Verdict {
	const n, ops = 3, 60
	var inner Implementation = impls.NewAtomicCounter()
	if faulty {
		inner = impls.NewFaulty(impls.NewAtomicCounter(), impls.StaleRead, 4, uint64(seed))
	}
	h := newIncHarness(inner, n)
	rng := rand.New(rand.NewSource(seed))
	var uniq trace.UniqSource
	gen := trace.NewOpGen("counter", seed, &uniq)

	var verdicts []check.Verdict
	held := make([][]Tuple, n)
	busy := make([]bool, n)
	published := 0
	for done := 0; done < ops || published < done; {
		p := rng.Intn(n)
		if !busy[p] && done < ops && rng.Intn(3) > 0 {
			held[p] = append(held[p], h.apply(p, gen.Next()))
			busy[p] = true
			done++
			continue
		}
		q := -1
		for off := 0; off < n; off++ {
			c := (p + off) % n
			if len(held[c]) > 0 {
				q = c
				break
			}
		}
		if q < 0 {
			continue
		}
		h.publish(held[q][0])
		held[q] = held[q][1:]
		busy[q] = len(held[q]) > 0
		published++
		iv.IngestHeads(h.m.Scan(0))
		verdicts = append(verdicts, iv.Verdict())
	}
	return verdicts
}

// TestRetainedVerifierEquivalence: under out-of-order publication (slow
// producers whose views predate already-ingested groups) interleaved with GC
// cycles, the retained pipeline's verdict equals the unbounded pipeline's
// after every publication, on correct and on faulty implementations.
func TestRetainedVerifierEquivalence(t *testing.T) {
	obj := genlin.Linearizability(spec.Counter())
	for seed := int64(1); seed <= 8; seed++ {
		faulty := seed%2 == 0
		retained := NewIncVerifier(3, obj, WithVerifierConfig(check.Config{Retain: true, Retention: tightRetention}))
		unbounded := NewIncVerifier(3, obj)
		got := driveOne(seed, faulty, retained)
		want := driveOne(seed, faulty, unbounded)
		if len(got) != len(want) {
			t.Fatalf("seed=%d: schedules diverged: %d vs %d publications", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed=%d pub=%d: retained=%v unbounded=%v", seed, i, got[i], want[i])
			}
		}
		if !faulty {
			st := retained.Stats()
			if st.Check.GCRuns == 0 || st.DiscardedTuples == 0 {
				t.Fatalf("seed=%d: retention idle on a clean stream: %+v", seed, st)
			}
			if st.RetainedTuples >= st.Tuples {
				t.Fatalf("seed=%d: nothing released: retained %d of %d", seed, st.RetainedTuples, st.Tuples)
			}
		}
	}
}

// TestRetainedVerifierWindowRebuild forces the out-of-order path after the
// pipeline has garbage-collected a prefix: the reconstruction must cover only
// the retained window, re-anchored at the monitor's GC base.
func TestRetainedVerifierWindowRebuild(t *testing.T) {
	const n = 2
	h := newIncHarness(impls.NewAtomicCounter(), n)
	obj := genlin.Linearizability(spec.Counter())
	iv := NewIncVerifier(n, obj, WithVerifierConfig(check.Config{Retain: true, Retention: tightRetention}))
	var uniq trace.UniqSource
	inc := func(p int) Tuple {
		return h.apply(p, spec.Operation{Method: spec.MethodInc, Uniq: uniq.Next()})
	}

	// Quiescent traffic: committed and collected.
	for i := 0; i < 30; i++ {
		h.publish(inc(i % n))
		iv.IngestHeads(h.m.Scan(0))
		if iv.Verdict() != check.Yes {
			t.Fatalf("clean prefix refuted at %d", i)
		}
	}
	if iv.Stats().Check.GCRuns == 0 || iv.Stats().DiscardedTuples == 0 {
		t.Fatalf("precondition: no GC before the late publication: %+v", iv.Stats())
	}

	// A slow producer takes its view now and publishes after faster
	// processes' larger views were ingested.
	slow := inc(0)
	for i := 0; i < 5; i++ {
		h.publish(inc(1))
		iv.IngestHeads(h.m.Scan(0))
		if iv.Verdict() != check.Yes {
			t.Fatalf("prefix with pending slow op refuted at %d", i)
		}
	}
	before := iv.Stats()
	if before.Rebuilds != 0 {
		t.Fatalf("premature rebuild: %+v", before)
	}
	h.publish(slow)
	iv.IngestHeads(h.m.Scan(0))
	if iv.Verdict() != check.Yes {
		t.Fatalf("late publication refuted:\n%s", iv.Witness().String())
	}
	st := iv.Stats()
	if st.Rebuilds != 1 {
		t.Fatalf("late small view must trigger exactly one rebuild, stats %+v", st)
	}
	if got := len(iv.Witness()); got >= 2*70 {
		t.Fatalf("rebuild was not windowed: %d events reassembled", got)
	}
	// The pipeline keeps working — and collecting — after the rebuild.
	for i := 0; i < 20; i++ {
		h.publish(inc(i % n))
		iv.IngestHeads(h.m.Scan(0))
		if iv.Verdict() != check.Yes {
			t.Fatalf("post-rebuild append %d refuted", i)
		}
	}
	if after := iv.Stats(); after.Check.GCRuns <= st.Check.GCRuns {
		t.Fatalf("GC stalled after the window rebuild: %+v", after)
	}
}

// TestRetainedVerifierStaleHorizon: a publication whose view predates the GC
// horizon cannot come from a correct DRV producer (its pending invocation
// would have blocked every quiescent cut); retention reports it as a views
// violation instead of silently accepting it.
func TestRetainedVerifierStaleHorizon(t *testing.T) {
	const n = 2
	h := newIncHarness(impls.NewAtomicCounter(), n)
	obj := genlin.Linearizability(spec.Counter())
	iv := NewIncVerifier(n, obj, WithVerifierConfig(check.Config{Retain: true, Retention: tightRetention}))
	var uniq trace.UniqSource
	inc := func(p int) Tuple {
		return h.apply(p, spec.Operation{Method: spec.MethodInc, Uniq: uniq.Next()})
	}
	early := inc(0) // its view predates everything that follows
	h.publish(early)
	iv.IngestHeads(h.m.Scan(0))
	for i := 0; i < 20; i++ {
		h.publish(inc(1))
		iv.IngestHeads(h.m.Scan(0))
	}
	if iv.Stats().Check.GCRuns == 0 {
		t.Fatalf("precondition: no GC: %+v", iv.Stats())
	}
	// A corrupted producer republishes an operation with the long-collected
	// early view. Its per-process position is fresh, its evidence is not.
	forged := Tuple{Proc: 0, Op: spec.Operation{Method: spec.MethodInc, Uniq: uniq.Next()}, Res: spec.OKResp(), View: early.View}
	iv.IngestTuples([]Tuple{forged})
	if iv.Verdict() != check.No {
		t.Fatal("publication behind the retention horizon accepted")
	}
	if _, ok := iv.Err().(*ViewsError); !ok {
		t.Fatalf("want ViewsError, got %v", iv.Err())
	}
}

// TestDecoupledRetainedRace: the full decoupled pipeline with retention —
// scanners releasing result-list prefixes through epochs, the dispatcher
// GC-ing the monitor — stays clean on a correct implementation under real
// concurrency. Run with -race: this is what exercises the truncate-while-scan
// protocol.
func TestDecoupledRetainedRace(t *testing.T) {
	const procs, perProc, verifiers = 4, 100, 3
	var mu sync.Mutex
	var got []Report
	d := NewDecoupled(impls.NewAtomicCounter(), procs, verifiers,
		genlin.Linearizability(spec.Counter()), func(r Report) {
			mu.Lock()
			got = append(got, r)
			mu.Unlock()
		}, WithDecoupledConfig(check.Config{Retain: true, Retention: tightRetention}))
	var uniq trace.UniqSource
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen := trace.NewOpGen("counter", int64(p), &uniq)
			for i := 0; i < perProc; i++ {
				d.Apply(p, gen.Next())
			}
		}(p)
	}
	wg.Wait()
	d.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 0 {
		t.Fatalf("reports on a correct run: %d, first witness:\n%s", len(got), got[0].Witness.String())
	}
	st := d.Stats()
	if st.Verify.Tuples != procs*perProc {
		t.Fatalf("final drain incomplete: verified %d of %d tuples (stats %+v)",
			st.Verify.Tuples, procs*perProc, st)
	}
}

// TestDecoupledRetainedDetects: retention must not lose violations — the
// injected fault is still reported exactly once.
func TestDecoupledRetainedDetects(t *testing.T) {
	const procs, perProc = 2, 200
	var mu sync.Mutex
	reports := 0
	d := NewDecoupled(impls.NewFaulty(impls.NewAtomicCounter(), impls.StaleRead, 2, 11),
		procs, 3, genlin.Linearizability(spec.Counter()), func(r Report) {
			mu.Lock()
			reports++
			mu.Unlock()
		}, WithDecoupledConfig(check.Config{Retain: true, Retention: tightRetention}))
	var uniq trace.UniqSource
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen := trace.NewOpGen("counter", int64(p), &uniq)
			for i := 0; i < perProc; i++ {
				d.Apply(p, gen.Next())
			}
		}(p)
	}
	wg.Wait()
	d.Close()
	mu.Lock()
	defer mu.Unlock()
	if reports != 1 {
		t.Fatalf("want exactly one report under retention, got %d", reports)
	}
}

// TestRetainedVerifierBurst drives the retained pipeline with coalesced
// bursts — the decoupled dispatcher's giant-batch pattern, where one Append
// spans many interior quiescent cuts and GC runs mid-batch — against the
// unbounded oracle. (This is the schedule that caught the boundary-queue
// corruption when the collector rewrote it mid-iteration.)
func TestRetainedVerifierBurst(t *testing.T) {
	obj := genlin.Linearizability(spec.Counter())
	for seed := int64(1); seed <= 20; seed++ {
		const n, ops = 4, 400
		mk := func() (*incHarness, *rand.Rand, *trace.OpGen) {
			var uniq trace.UniqSource
			h := newIncHarness(impls.NewAtomicCounter(), n)
			return h, rand.New(rand.NewSource(seed)), trace.NewOpGen("counter", seed, &uniq)
		}
		drive := func(iv *IncVerifier) []check.Verdict {
			h, rng, gen := mk()
			var verdicts []check.Verdict
			held := make([][]Tuple, n)
			busy := make([]bool, n)
			published := 0
			sincePass := 0
			for done := 0; done < ops || published < done; {
				p := rng.Intn(n)
				if !busy[p] && done < ops && rng.Intn(3) > 0 {
					held[p] = append(held[p], h.apply(p, gen.Next()))
					busy[p] = true
					done++
					continue
				}
				q := -1
				for off := 0; off < n; off++ {
					c := (p + off) % n
					if len(held[c]) > 0 {
						q = c
						break
					}
				}
				if q < 0 {
					continue
				}
				h.publish(held[q][0])
				held[q] = held[q][1:]
				busy[q] = len(held[q]) > 0
				published++
				sincePass++
				// Coalesce: ingest only every 40 publications (and at the end).
				if sincePass >= 40 || (done >= ops && published == done) {
					sincePass = 0
					iv.IngestHeads(h.m.Scan(0))
					verdicts = append(verdicts, iv.Verdict())
				}
			}
			return verdicts
		}
		got := drive(NewIncVerifier(n, obj, WithVerifierConfig(check.Config{Retain: true})))
		want := drive(NewIncVerifier(n, obj))
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed=%d pass=%d: retained=%v unbounded=%v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestIncVerifierDeferredGap pins the tuple-lag path deterministically: a
// view that announces a process's later operations arrives before that
// process's response tuples (as happens when scanner batches from different
// processes interleave). The pipeline must defer — not report — and resolve
// once the missing tuples arrive.
func TestIncVerifierDeferredGap(t *testing.T) {
	const n = 2
	h := newIncHarness(impls.NewAtomicCounter(), n)
	obj := genlin.Linearizability(spec.Counter())
	var uniq trace.UniqSource
	op := func() spec.Operation { return spec.Operation{Method: spec.MethodInc, Uniq: uniq.Next()} }
	t1 := h.apply(0, op())
	t2 := h.apply(0, op())
	t3 := h.apply(1, op()) // view contains both announces of process 0

	for _, retain := range []bool{false, true} {
		var opts []IncVerifierOption
		if retain {
			opts = append(opts, WithVerifierConfig(check.Config{Retain: true, Retention: tightRetention}))
		}
		iv := NewIncVerifier(n, obj, opts...)
		iv.IngestTuples([]Tuple{t3})
		if iv.Verdict() != check.Yes || iv.Err() != nil {
			t.Fatalf("retain=%v: gapped batch reported as violation: %v %v", retain, iv.Verdict(), iv.Err())
		}
		if !iv.Blocked() || iv.Stats().Deferrals != 1 {
			t.Fatalf("retain=%v: gap not deferred: blocked=%v stats=%+v", retain, iv.Blocked(), iv.Stats())
		}
		iv.IngestTuples([]Tuple{t1, t2})
		if iv.Verdict() != check.Yes || iv.Blocked() {
			t.Fatalf("retain=%v: gap did not resolve: %v blocked=%v", retain, iv.Verdict(), iv.Blocked())
		}
		if got := iv.Stats().Tuples; got != 3 {
			t.Fatalf("retain=%v: %d tuples ingested, want 3", retain, got)
		}
		if !retain {
			if got := len(iv.Witness().Ops()); got != 3 {
				t.Fatalf("%d ops assembled, want 3", got)
			}
		}
	}
}

// TestRetainedVerifierFrozenAfterViolation: once the verdict is No the
// pipeline stops retaining — a refuted stream must not grow memory (the
// bound RetentionPolicy promises).
func TestRetainedVerifierFrozenAfterViolation(t *testing.T) {
	const n = 2
	h := newIncHarness(impls.NewAtomicCounter(), n)
	obj := genlin.Linearizability(spec.Counter())
	iv := NewIncVerifier(n, obj, WithVerifierConfig(check.Config{Retain: true, Retention: tightRetention}))
	var uniq trace.UniqSource
	inc := func(p int) Tuple {
		return h.apply(p, spec.Operation{Method: spec.MethodInc, Uniq: uniq.Next()})
	}
	for i := 0; i < 10; i++ {
		h.publish(inc(i % n))
		iv.IngestHeads(h.m.Scan(0))
	}
	iv.MarkCorrupt("injected")
	if iv.Verdict() != check.No {
		t.Fatal("precondition: not violated")
	}
	tuples, events := len(iv.all), len(iv.inc.History())
	for i := 0; i < 50; i++ {
		h.publish(inc(i % n))
		iv.IngestHeads(h.m.Scan(0))
	}
	if len(iv.all) != tuples || len(iv.inc.History()) != events {
		t.Fatalf("buffers grew after the verdict froze: tuples %d->%d events %d->%d",
			tuples, len(iv.all), events, len(iv.inc.History()))
	}
}

// driveModel is driveOne generalised over the monitored model, for the
// commit-point-cut threading test below: out-of-order publication (held
// tuples) against a DRV over the model's reference implementation.
func driveModel(m spec.Model, seed int64, iv *IncVerifier) []check.Verdict {
	const n, ops = 3, 80
	h := newIncHarness(impls.ForModel(m), n)
	rng := rand.New(rand.NewSource(seed))
	var uniq trace.UniqSource
	gen := trace.NewOpGen(m.Name(), seed, &uniq)

	var verdicts []check.Verdict
	held := make([][]Tuple, n)
	busy := make([]bool, n)
	published := 0
	for done := 0; done < ops || published < done; {
		p := rng.Intn(n)
		if !busy[p] && done < ops && rng.Intn(3) > 0 {
			held[p] = append(held[p], h.apply(p, gen.Next()))
			busy[p] = true
			done++
			continue
		}
		q := -1
		for off := 0; off < n; off++ {
			c := (p + off) % n
			if len(held[c]) > 0 {
				q = c
				break
			}
		}
		if q < 0 {
			continue
		}
		h.publish(held[q][0])
		held[q] = held[q][1:]
		busy[q] = len(held[q]) > 0
		published++
		iv.IngestHeads(h.m.Scan(0))
		verdicts = append(verdicts, iv.Verdict())
	}
	return verdicts
}

// TestRetainedVerifierCommitCuts: RetentionPolicy.CommitCuts threads through
// WithVerifierConfig — the assembler's response-aligned GC sync and the
// windowed rebuild stay exact when the monitor restages carried invocations
// — and the pipeline's verdicts still equal the unbounded pipeline's after
// every publication, on strongly-ordered and on incapable models alike.
func TestRetainedVerifierCommitCuts(t *testing.T) {
	pol := check.RetentionPolicy{GCBatch: 1, CommitCuts: true}
	for _, m := range []spec.Model{spec.Queue(), spec.Stack(), spec.PQueue(), spec.Counter()} {
		obj := genlin.Linearizability(m)
		for seed := int64(1); seed <= 6; seed++ {
			retained := NewIncVerifier(3, obj, WithVerifierConfig(check.Config{Retain: true, Retention: pol}))
			unbounded := NewIncVerifier(3, obj)
			got := driveModel(m, seed, retained)
			want := driveModel(m, seed, unbounded)
			if len(got) != len(want) {
				t.Fatalf("%s seed=%d: %d vs %d publications", m.Name(), seed, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("%s seed=%d: verdicts diverged at publication %d: %v vs %v",
						m.Name(), seed, k, got[k], want[k])
				}
			}
			if d := retained.Stats().DiscardedTuples; d == 0 {
				t.Fatalf("%s seed=%d: retention never released a tuple", m.Name(), seed)
			}
		}
	}
}
