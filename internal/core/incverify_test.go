package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/conslist"
	"repro/internal/genlin"
	"repro/internal/impls"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/trace"
)

// incHarness drives a DRV single-threadedly with decoupled-style publication
// (possibly delayed per process) so tests can compare the incremental
// pipeline against the legacy flatten+BuildHistory+Contains path at every
// publication.
type incHarness struct {
	n   int
	drv *DRV
	m   snapshot.Snapshot[*conslist.Node[Tuple]]
	res []*conslist.Node[Tuple]
}

func newIncHarness(inner Implementation, n int) *incHarness {
	return &incHarness{
		n:   n,
		drv: NewDRV(inner, n),
		m:   snapshot.NewAfek[*conslist.Node[Tuple]](n),
		res: make([]*conslist.Node[Tuple], n),
	}
}

func (h *incHarness) apply(proc int, op spec.Operation) Tuple {
	y, view := h.drv.Apply(proc, op)
	return Tuple{Proc: proc, Op: op, Res: y, View: view}
}

func (h *incHarness) publish(t Tuple) {
	h.res[t.Proc] = conslist.Push(h.res[t.Proc], t)
	h.m.Update(t.Proc, h.res[t.Proc])
}

// legacyVerdict is the non-incremental verifier body of the old Figure 12
// loop: flatten everything, rebuild X(τ), decide membership.
func (h *incHarness) legacyVerdict(obj genlin.Object) (bool, error) {
	heads := h.m.Scan(0)
	var tuples []Tuple
	for _, hd := range heads {
		tuples = append(tuples, hd.Ascending()...)
	}
	x, err := BuildHistory(tuples, h.n)
	if err != nil {
		return false, err
	}
	return obj.Contains(x), nil
}

// TestIncVerifierEquivalence: with delayed publications (slow producers whose
// views predate already-ingested groups), the incremental verdict equals the
// legacy full-reconstruction verdict after every publication, on correct and
// on faulty implementations.
func TestIncVerifierEquivalence(t *testing.T) {
	const n, ops = 3, 60
	for seed := int64(1); seed <= 8; seed++ {
		var inner Implementation = impls.NewAtomicCounter()
		if seed%2 == 0 {
			inner = impls.NewFaulty(impls.NewAtomicCounter(), impls.StaleRead, 4, uint64(seed))
		}
		h := newIncHarness(inner, n)
		obj := genlin.Linearizability(spec.Counter())
		iv := NewIncVerifier(n, obj)
		rng := rand.New(rand.NewSource(seed))
		var uniq trace.UniqSource
		gen := trace.NewOpGen("counter", seed, &uniq)

		// Per-process queues of applied-but-unpublished tuples: applying more
		// ops before publishing simulates a slow producer (per-process
		// publication order is preserved, as in the real Decoupled).
		held := make([][]Tuple, n)
		busy := make([]bool, n) // a process with an unpublished tuple must not apply again
		published := 0
		for done := 0; done < ops || published < done; {
			p := rng.Intn(n)
			if !busy[p] && done < ops && rng.Intn(3) > 0 {
				held[p] = append(held[p], h.apply(p, gen.Next()))
				busy[p] = true
				done++
				continue
			}
			// Publish the oldest held tuple of a random nonempty queue.
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
			want, wantErr := h.legacyVerdict(obj)
			got := iv.Verdict() == check.Yes
			if wantErr != nil {
				if iv.Err() == nil && got {
					t.Fatalf("seed=%d pub=%d: legacy views error %v, incremental accepted", seed, published, wantErr)
				}
				continue
			}
			if got != want {
				t.Fatalf("seed=%d pub=%d: incremental=%v legacy=%v\nwitness:\n%s",
					seed, published, got, want, iv.Witness().String())
			}
			if !want && iv.Verdict() != check.No {
				t.Fatalf("seed=%d pub=%d: violation not sticky", seed, published)
			}
		}
	}
}

// TestIncVerifierRebuild forces the out-of-order path deterministically: a
// slow process takes its view early and publishes long after faster
// processes' larger views were ingested.
func TestIncVerifierRebuild(t *testing.T) {
	const n = 2
	h := newIncHarness(impls.NewAtomicCounter(), n)
	obj := genlin.Linearizability(spec.Counter())
	iv := NewIncVerifier(n, obj)
	var uniq trace.UniqSource

	inc := func(p int) Tuple {
		return h.apply(p, spec.Operation{Method: spec.MethodInc, Uniq: uniq.Next()})
	}
	slow := inc(0) // view of size 1, published last
	for i := 0; i < 5; i++ {
		h.publish(inc(1))
		iv.IngestHeads(h.m.Scan(0))
		if iv.Verdict() != check.Yes {
			t.Fatalf("clean prefix refuted at %d", i)
		}
	}
	if iv.Stats().Rebuilds != 0 {
		t.Fatalf("premature rebuild: %+v", iv.Stats())
	}
	h.publish(slow)
	iv.IngestHeads(h.m.Scan(0))
	if iv.Verdict() != check.Yes {
		t.Fatalf("late publication refuted:\n%s", iv.Witness().String())
	}
	if iv.Stats().Rebuilds != 1 {
		t.Fatalf("late small view must trigger exactly one rebuild, stats %+v", iv.Stats())
	}
	want, err := h.legacyVerdict(obj)
	if err != nil || !want {
		t.Fatalf("legacy disagreement after rebuild: %v %v", want, err)
	}
	// The pipeline keeps working incrementally after the rebuild.
	h.publish(inc(0))
	iv.IngestHeads(h.m.Scan(0))
	if iv.Verdict() != check.Yes || iv.Stats().Rebuilds != 1 {
		t.Fatalf("post-rebuild append broken: verdict=%v stats=%+v", iv.Verdict(), iv.Stats())
	}
}

// TestIncVerifierTaskObject: the generic-object path (no sequential model to
// specialise on) decides one-shot task membership incrementally gated on
// deltas.
func TestIncVerifierTaskObject(t *testing.T) {
	const n = 3
	obj := genlin.ConsensusTask()
	h := newIncHarness(impls.NewCASConsensus(), n)
	iv := NewIncVerifier(n, obj)
	var uniq trace.UniqSource
	for p := 0; p < n; p++ {
		h.publish(h.apply(p, spec.Operation{Method: spec.MethodDecide, Arg: int64(10 + p), Uniq: uniq.Next()}))
		iv.IngestHeads(h.m.Scan(0))
		if iv.Verdict() != check.Yes {
			t.Fatalf("correct consensus refuted at p%d:\n%s", p+1, iv.Witness().String())
		}
	}

	// A disagreeing decision must be refuted.
	bad := newIncHarness(impls.NewCASConsensus(), n)
	ivBad := NewIncVerifier(n, obj)
	t0 := bad.apply(0, spec.Operation{Method: spec.MethodDecide, Arg: 7, Uniq: uniq.Next()})
	t1 := bad.apply(1, spec.Operation{Method: spec.MethodDecide, Arg: 8, Uniq: uniq.Next()})
	t1.Res = spec.ValueResp(999) // corrupt: disagreement
	bad.publish(t0)
	bad.publish(t1)
	ivBad.IngestHeads(bad.m.Scan(0))
	if ivBad.Verdict() != check.No {
		t.Fatal("disagreeing consensus accepted")
	}
}

// TestDecoupledShardedRace: the sharded pipeline (scanners + dispatcher)
// under concurrent producers stays clean on a correct implementation and
// verifies every published tuple by Close. Run with -race.
func TestDecoupledShardedRace(t *testing.T) {
	const procs, perProc, verifiers = 4, 50, 3
	var mu sync.Mutex
	var got []Report
	d := NewDecoupled(impls.NewAtomicCounter(), procs, verifiers,
		genlin.Linearizability(spec.Counter()), func(r Report) {
			mu.Lock()
			got = append(got, r)
			mu.Unlock()
		})
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
	if st.Scans == 0 {
		t.Fatal("no snapshot scans recorded")
	}
}

// TestDecoupledReportDedup: the dispatcher reports a sticky violation exactly
// once, where the paper-literal loop reports on every iteration.
func TestDecoupledReportDedup(t *testing.T) {
	const procs, perProc = 2, 200
	var mu sync.Mutex
	reports := 0
	d := NewDecoupled(impls.NewFaulty(impls.NewAtomicCounter(), impls.StaleRead, 2, 11),
		procs, 3, genlin.Linearizability(spec.Counter()), func(r Report) {
			mu.Lock()
			reports++
			mu.Unlock()
		})
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
	d.Close() // final drain guarantees the violation is seen
	mu.Lock()
	defer mu.Unlock()
	if reports != 1 {
		t.Fatalf("want exactly one deduplicated report, got %d", reports)
	}
	if st := d.Stats(); st.Reports != 1 {
		t.Fatalf("stats disagree: %+v", st)
	}
}
