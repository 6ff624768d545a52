package core

import (
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/genlin"
	"repro/internal/impls"
	"repro/internal/spec"
	"repro/internal/trace"
)

// TestDecoupledParallelMonitorRace: the full decoupled pipeline — producers,
// scanners, dispatcher — with the monitor's segment checks fanned out on a
// worker pool, soaking a queue (whose concurrent enqueues are what produce
// multi-state frontiers). Run with -race: this is the schedule where worker
// goroutines run inside the dispatcher while scanners and producers are
// live, so it exercises the chain-detach discipline end to end.
func TestDecoupledParallelMonitorRace(t *testing.T) {
	const procs, perProc, verifiers = 4, 60, 3
	var mu sync.Mutex
	var got []Report
	d := NewDecoupled(impls.ForModel(spec.Queue()), procs, verifiers,
		genlin.Linearizability(spec.Queue()), func(r Report) {
			mu.Lock()
			got = append(got, r)
			mu.Unlock()
		},
		WithDecoupledConfig(check.Config{Retain: true, Retention: tightRetention, Parallelism: 4}))
	var uniq trace.UniqSource
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen := trace.NewOpGen("queue", int64(p), &uniq)
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
		t.Fatalf("final drain incomplete: verified %d of %d tuples", st.Verify.Tuples, procs*perProc)
	}
	if len(st.Workers) != 4 {
		t.Fatalf("worker diagnostics absent: %d slots, want 4", len(st.Workers))
	}
}

// TestDecoupledParallelDetects: parallelism must not lose violations — the
// injected fault is still reported exactly once, through the all-workers-
// refute join.
func TestDecoupledParallelDetects(t *testing.T) {
	const procs, perProc = 2, 200
	var mu sync.Mutex
	reports := 0
	d := NewDecoupled(impls.NewFaulty(impls.NewAtomicCounter(), impls.StaleRead, 2, 11),
		procs, 3, genlin.Linearizability(spec.Counter()), func(r Report) {
			mu.Lock()
			reports++
			mu.Unlock()
		}, WithDecoupledConfig(check.Config{Retain: true, Retention: tightRetention, Parallelism: 4}))
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
		t.Fatalf("want exactly one report with a parallel monitor, got %d", reports)
	}
}
