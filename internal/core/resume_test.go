package core

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/genlin"
	"repro/internal/impls"
	"repro/internal/spec"
	"repro/internal/trace"
)

// resumeRoundTrip pushes iv's monitor through the full durable path —
// Checkpoint, JSON, RestoreIncremental, ResumeIncVerifier — and returns the
// re-anchored pipeline.
func resumeRoundTrip(t *testing.T, n int, obj genlin.Object, iv *IncVerifier) *IncVerifier {
	t.Helper()
	img, err := iv.inc.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	raw, err := json.Marshal(img)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var dec check.MonitorImage
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	inc, err := check.RestoreIncremental(&dec)
	if err != nil {
		t.Fatalf("RestoreIncremental: %v", err)
	}
	resumed, err := ResumeIncVerifier(n, obj, inc)
	if err != nil {
		t.Fatalf("ResumeIncVerifier: %v", err)
	}
	return resumed
}

// TestResumeIncVerifierContinuation: a pipeline resumed mid-stream from a
// serialised checkpoint tracks the uninterrupted reference verdict-for-
// verdict on the continuation, on clean and on faulty implementations, with
// and without retention.
func TestResumeIncVerifierContinuation(t *testing.T) {
	const n, ops = 3, 90
	obj := genlin.Linearizability(spec.Counter())
	for seed := int64(1); seed <= 6; seed++ {
		for _, retain := range []bool{false, true} {
			var inner Implementation = impls.NewAtomicCounter()
			if seed%2 == 0 {
				inner = impls.NewFaulty(impls.NewAtomicCounter(), impls.StaleRead, 6, uint64(seed))
			}
			h := newIncHarness(inner, n)
			var opts []IncVerifierOption
			if retain {
				opts = append(opts, WithVerifierConfig(check.Config{Retain: true, Retention: check.RetentionPolicy{GCBatch: 8}}))
			}
			ref := NewIncVerifier(n, obj, opts...)
			var resumed *IncVerifier
			var uniq trace.UniqSource
			gen := trace.NewOpGen("counter", seed, &uniq)

			for i := 0; i < ops; i++ {
				if i == ops/2 {
					resumed = resumeRoundTrip(t, n, obj, ref)
				}
				h.publish(h.apply(i%n, gen.Next()))
				heads := h.m.Scan(0)
				ref.IngestHeads(heads)
				if resumed != nil {
					resumed.IngestHeads(heads)
					if resumed.Verdict() != ref.Verdict() {
						t.Fatalf("seed=%d retain=%v op=%d: resumed=%v reference=%v\nwitness:\n%s",
							seed, retain, i, resumed.Verdict(), ref.Verdict(), resumed.Witness().String())
					}
				}
			}
			if (resumed.Err() != nil) != (ref.Err() != nil) {
				t.Fatalf("seed=%d retain=%v: resumed err %v, reference %v", seed, retain, resumed.Err(), ref.Err())
			}
			// The resumed pipeline verified the whole continuation, not a
			// trivial prefix.
			if ref.Verdict() == check.Yes && resumed.Stats().Tuples == 0 {
				t.Fatalf("seed=%d retain=%v: resumed pipeline ingested nothing", seed, retain)
			}
		}
	}
}

// TestResumeIncVerifierDetectsPostResumeViolation: a corruption published
// after the resume point is caught by the resumed pipeline — recovery does
// not blunt detection.
func TestResumeIncVerifierDetectsPostResumeViolation(t *testing.T) {
	const n = 2
	obj := genlin.Linearizability(spec.Counter())
	h := newIncHarness(impls.NewAtomicCounter(), n)
	ref := NewIncVerifier(n, obj, WithVerifierConfig(check.Config{Retain: true, Retention: check.RetentionPolicy{GCBatch: 4}}))
	var uniq trace.UniqSource
	gen := trace.NewOpGen("counter", 5, &uniq)
	for i := 0; i < 20; i++ {
		h.publish(h.apply(i%n, gen.Next()))
		ref.IngestHeads(h.m.Scan(0))
	}
	if ref.Verdict() != check.Yes {
		t.Fatalf("clean prefix refuted: %v", ref.Err())
	}
	resumed := resumeRoundTrip(t, n, obj, ref)

	bad := h.apply(0, spec.Operation{Method: spec.MethodRead, Uniq: uniq.Next()})
	bad.Res = spec.ValueResp(-999) // a count the object can never return
	h.publish(bad)
	resumed.IngestHeads(h.m.Scan(0))
	if resumed.Verdict() != check.No {
		t.Fatal("resumed pipeline accepted a corrupt continuation")
	}
}

// TestResumeIncVerifierRejects: the guard rails — nil monitor, model
// mismatch, generic objects — fail loudly instead of resuming wrong.
func TestResumeIncVerifierRejects(t *testing.T) {
	if _, err := ResumeIncVerifier(2, genlin.Linearizability(spec.Counter()), nil); err == nil {
		t.Fatal("nil monitor accepted")
	}
	inc := check.NewIncremental(spec.Queue())
	if _, err := ResumeIncVerifier(2, genlin.Linearizability(spec.Counter()), inc); err == nil {
		t.Fatal("model mismatch accepted")
	}
	if _, err := ResumeIncVerifier(2, genlin.ConsensusTask(), check.NewIncremental(spec.Consensus())); err == nil {
		t.Fatal("generic-object resume accepted")
	}
}

// TestDecoupledCheckpointMonitor: the export half — after Close, the
// dispatcher's monitor is checkpointable, the image restores, and a pipeline
// resumed from it picks up with the settled verdict. Under WithFullRecheck
// there is nothing to export and the call says so.
func TestDecoupledCheckpointMonitor(t *testing.T) {
	const procs, perProc = 3, 40
	obj := genlin.Linearizability(spec.Counter())
	d := NewDecoupled(impls.NewAtomicCounter(), procs, 3, obj, nil,
		WithDecoupledConfig(check.Config{Retain: true, Retention: check.RetentionPolicy{GCBatch: 8}}))
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

	img, err := d.CheckpointMonitor()
	if err != nil {
		t.Fatalf("CheckpointMonitor: %v", err)
	}
	inc, err := check.RestoreIncremental(img)
	if err != nil {
		t.Fatalf("RestoreIncremental: %v", err)
	}
	if inc.Verdict() != check.Yes {
		t.Fatalf("restored verdict %v, want Yes", inc.Verdict())
	}
	if _, err := ResumeIncVerifier(procs, obj, inc); err != nil {
		t.Fatalf("ResumeIncVerifier on exported image: %v", err)
	}

	full := NewDecoupled(impls.NewAtomicCounter(), 1, 2, obj, nil, WithFullRecheck())
	full.Close()
	if _, err := full.CheckpointMonitor(); err == nil {
		t.Fatal("full-recheck pipeline exported a monitor image")
	}
}
