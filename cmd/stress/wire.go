package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/soak"
	"repro/internal/spec"
	"repro/internal/trace"
)

// wireCfg carries the -net and -crash-every soaks' flag values.
type wireCfg struct {
	addr    string // -net: the linmond server; "" in crash mode
	every   int    // -crash-every: batches between forced restarts; 0 in net mode
	batch   int    // events per wire batch
	fault   string // "" or "mutate"
	procs   int
	ops     int
	seeds   int
	monitor check.Config
}

// runWire soaks linmond through soak.Stream: every seed generates a history
// (perturbed by trace.Mutate under -fault mutate), streams it over one
// session and cross-checks it against an in-process monitor fed the same
// batches — same verdict, every event applied exactly once. -net seeds run
// concurrently against one server, each its own object, which is also what
// exercises the server's cross-object fan-out. -crash-every seeds run one at
// a time, each against its own in-process durable server that is
// force-restarted every N batches.
func runWire(m spec.Model, cfg wireCfg) int {
	start := time.Now()
	// Object names are unique per invocation: a linmond object is append-only
	// (model and config pinned at first open), so successive soak runs
	// against one long-lived server must not collide.
	run := fmt.Sprintf("%s-%d-%d", m.Name(), os.Getpid(), start.UnixNano())
	results := make([]soak.StreamResult, cfg.seeds)
	var wg sync.WaitGroup
	for seed := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := trace.RandomLinearizable(m, int64(seed), cfg.procs, cfg.procs*cfg.ops)
			if cfg.fault == "mutate" {
				h = trace.Mutate(h, int64(seed)*7+1)
			}
			results[seed] = soak.Stream(m, soak.Slice(h), soak.StreamConfig{
				Addr: cfg.addr, Tenant: "stress", Object: fmt.Sprintf("%s-seed-%d", run, seed),
				Batch: cfg.batch, CrashEvery: cfg.every, Monitor: cfg.monitor,
			})
		}()
		if cfg.every > 0 {
			wg.Wait()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	events, restarts, failures, divergences, violations := 0, 0, 0, 0, 0
	for seed, r := range results {
		events += r.Events
		restarts += r.Restarts
		switch {
		case r.Err != "":
			failures++
		case !r.Ok():
			divergences++
		default:
			if r.Streamed != check.Yes {
				violations++
			}
			continue
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", seed, r.Fault())
	}

	mode, where, across := "net", "addr="+cfg.addr, ""
	if cfg.every > 0 {
		mode, where = "crash", fmt.Sprintf("crash-every=%d", cfg.every)
		across = fmt.Sprintf(" across %d forced restarts", restarts)
	}
	fmt.Printf("%s model=%s %s fault=%q procs=%d ops/proc=%d seeds=%d batch=%d retain=%v workers=%d\n",
		mode, m.Name(), where, cfg.fault, cfg.procs, cfg.ops, cfg.seeds, cfg.batch,
		cfg.monitor.Retain, cfg.monitor.Parallelism)
	fmt.Printf("streamed events: %d in %v (%.0f events/s)%s\n",
		events, elapsed.Round(time.Millisecond), float64(events)/elapsed.Seconds(), across)
	fmt.Printf("sessions: %d ok, %d failed, %d divergences, %d violations reported\n",
		cfg.seeds-failures-divergences, failures, divergences, violations)
	if failures > 0 || divergences > 0 {
		return 1
	}
	if cfg.fault == "" && violations > 0 {
		fmt.Fprintln(os.Stderr, "FALSE violations on linearizable traces")
		return 1
	}
	if cfg.fault == "mutate" && violations == 0 {
		fmt.Fprintln(os.Stderr, "note: no mutation produced a violation (mutations may remain linearizable)")
	}
	return 0
}

// runReplay streams a corpus trace (testdata/traces, or any interchange
// envelope) through soak.RunReplay — the ingestion counterpart of the
// generated-history soaks. Exit codes: 0 replay completed and the verdicts
// agreed (whatever they were), 1 the replay diverged or failed, 2 bad
// configuration.
func runReplay(path, model string, cfg soak.StreamConfig) int {
	res := soak.RunReplay(path, model, cfg)
	if res.Model == "" {
		// Failed before streaming anything: configuration, not divergence.
		fmt.Fprintf(os.Stderr, "replay: %s\n", res.Err)
		return 2
	}
	pace := "unpaced"
	if cfg.Speed > 0 {
		pace = fmt.Sprintf("%gx recorded pace", cfg.Speed)
	}
	fmt.Printf("replay %s model=%s events=%d batches=%d %s\n",
		path, res.Model, res.Events, res.Batches, pace)
	if res.TraceNs > 0 {
		fmt.Printf("recorded span %v, replayed in %v\n",
			time.Duration(res.TraceNs).Round(time.Microsecond),
			time.Duration(res.WallNs).Round(time.Microsecond))
	} else {
		fmt.Printf("replayed in %v (trace carries no timestamps)\n",
			time.Duration(res.WallNs).Round(time.Microsecond))
	}
	fmt.Printf("verdict: streamed=%v local=%v\n", res.Streamed, res.Local)
	if !res.Ok() {
		fmt.Fprintf(os.Stderr, "replay FAILED: %s\n", res.Fault())
		return 1
	}
	return 0
}
