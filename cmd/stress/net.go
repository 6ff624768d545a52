package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/history"
	"repro/internal/monitorclient"
	"repro/internal/spec"
	"repro/internal/trace"
)

// netCfg carries the -net soak's flag values.
type netCfg struct {
	addr    string
	batch   int
	fault   string // "" or "mutate"
	procs   int
	ops     int
	seeds   int
	monitor check.Config
}

// runNet soaks a linmond server: every seed generates a history, streams it
// over one monitoring session (the monitor Config rides in the open frame),
// and cross-checks the streamed verdict against an in-process monitor fed
// the exact same batches. Seeds run concurrently — each is its own object,
// which is also what exercises the server's cross-object fan-out.
func runNet(m spec.Model, cfg netCfg) int {
	type outcome struct {
		seed     int
		events   int
		streamed check.Verdict
		local    check.Verdict
		err      error
	}
	start := time.Now()
	// Object names are unique per invocation: a linmond object is append-only
	// (model and config pinned at first open), so successive soak runs
	// against one long-lived server must not collide.
	run := fmt.Sprintf("%s-%d-%d", m.Name(), os.Getpid(), start.UnixNano())
	outs := make([]outcome, cfg.seeds)
	var wg sync.WaitGroup
	for seed := 0; seed < cfg.seeds; seed++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			o := &outs[seed]
			o.seed = seed
			h := trace.RandomLinearizable(m, int64(seed), cfg.procs, cfg.procs*cfg.ops)
			if cfg.fault == "mutate" {
				h = trace.Mutate(h, int64(seed)*7+1)
			}
			o.events = len(h)

			local := check.NewIncremental(m, check.WithConfig(cfg.monitor))
			o.local = check.Yes

			sess, err := monitorclient.Dial(cfg.addr, "stress", fmt.Sprintf("%s-seed-%d", run, seed), m.Name(),
				monitorclient.WithConfig(cfg.monitor),
				monitorclient.WithReconnect(20, 250*time.Millisecond))
			if err != nil {
				o.err = err
				return
			}
			for rest := h; len(rest) > 0; {
				k := min(cfg.batch, len(rest))
				var b history.History
				b, rest = rest[:k], rest[k:]
				o.local = local.Append(b)
				if err := sess.Send(b); err != nil {
					o.err = err
					return
				}
			}
			o.streamed, o.err = sess.Close()
		}(seed)
	}
	wg.Wait()
	elapsed := time.Since(start)

	events, failures, mismatches, violations := 0, 0, 0, 0
	for _, o := range outs {
		events += o.events
		switch {
		case o.err != nil:
			failures++
			fmt.Fprintf(os.Stderr, "seed %d: %v\n", o.seed, o.err)
		case o.streamed != o.local:
			mismatches++
			fmt.Fprintf(os.Stderr, "seed %d: streamed verdict %v, in-process %v\n", o.seed, o.streamed, o.local)
		case o.streamed != check.Yes:
			violations++
		}
	}

	fmt.Printf("net model=%s addr=%s fault=%q procs=%d ops/proc=%d seeds=%d batch=%d retain=%v workers=%d\n",
		m.Name(), cfg.addr, cfg.fault, cfg.procs, cfg.ops, cfg.seeds, cfg.batch,
		cfg.monitor.Retain, cfg.monitor.Parallelism)
	fmt.Printf("streamed events: %d in %v (%.0f events/s)\n",
		events, elapsed.Round(time.Millisecond), float64(events)/elapsed.Seconds())
	fmt.Printf("sessions: %d ok, %d failed, %d verdict mismatches, %d violations reported\n",
		cfg.seeds-failures-mismatches, failures, mismatches, violations)
	if failures > 0 || mismatches > 0 {
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
