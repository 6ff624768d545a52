package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/history"
	"repro/internal/monitorclient"
	"repro/internal/monitorserver"
	"repro/internal/spec"
	"repro/internal/trace"
)

// crashCfg carries the -crash-every soak's flag values.
type crashCfg struct {
	every   int    // batches between forced server restarts
	batch   int    // events per wire batch
	fault   string // "" or "mutate"
	procs   int
	ops     int
	seeds   int
	monitor check.Config
}

// runCrash is the crash-restart soak: each seed streams a generated history
// to an in-process linmond whose state dir lives on a fault-injectable
// filesystem, and the server is killed and restarted from its checkpoints
// every -crash-every batches — every other restart with the drain checkpoint
// failing under injected ENOSPC, so recovery falls back to the last periodic
// generation and the client's replay buffer covers the gap. Final verdicts
// and applied-event counts are diffed against an uninterrupted in-process
// monitor; any divergence is a failed run.
func runCrash(m spec.Model, cfg crashCfg) int {
	start := time.Now()
	events, failures, mismatches, violations, restarts := 0, 0, 0, 0, 0
	quiet := func(string, ...any) {} // injected checkpoint failures are the point, not news

	for seed := 0; seed < cfg.seeds; seed++ {
		h := trace.RandomLinearizable(m, int64(seed), cfg.procs, cfg.procs*cfg.ops)
		if cfg.fault == "mutate" {
			h = trace.Mutate(h, int64(seed)*7+1)
		}
		events += len(h)

		local := check.NewIncremental(m, check.WithConfig(cfg.monitor))
		want := check.Yes

		mem := ckpt.NewMemFS()
		ffs := ckpt.NewFaultFS(mem)
		store, err := ckpt.NewStore(ffs, "state")
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: store: %v\n", seed, err)
			failures++
			continue
		}
		opts := monitorserver.Options{Workers: 2, Store: store, CheckpointEvery: 4, Logf: quiet}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: listen: %v\n", seed, err)
			failures++
			continue
		}
		srv := monitorserver.Serve(ln, opts)
		addr := srv.Addr().String()

		sess, err := monitorclient.Dial(addr, "stress", fmt.Sprintf("crash-seed-%d", seed), m.Name(),
			monitorclient.WithConfig(cfg.monitor),
			monitorclient.WithReconnect(20, 250*time.Millisecond))
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: dial: %v\n", seed, err)
			failures++
			srv.Close()
			continue
		}

		sent, sendErr := 0, error(nil)
		for rest := h; len(rest) > 0; {
			if sent > 0 && sent%cfg.every == 0 {
				restarts++
				if restarts%2 == 0 {
					// Crash the drain checkpoint too: recovery must fall back
					// to the previous durable generation.
					ffs.FailN(ckpt.OpSync, 1, ckpt.ErrNoSpace)
				}
				srv.Close()
				ffs.Arm(nil)
				for i := 0; ; i++ {
					if ln, err = net.Listen("tcp", addr); err == nil {
						break
					}
					if i >= 200 {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if err != nil {
					sendErr = fmt.Errorf("relisten %s: %w", addr, err)
					break
				}
				srv = monitorserver.Serve(ln, opts)
			}
			k := min(cfg.batch, len(rest))
			var b history.History
			b, rest = rest[:k], rest[k:]
			want = local.Append(b)
			if err := sess.Send(b); err != nil {
				sendErr = err
				break
			}
			sent++
		}
		streamed, closeErr := check.Yes, error(nil)
		if sendErr == nil {
			streamed, closeErr = sess.Close()
		}
		switch {
		case sendErr != nil:
			failures++
			fmt.Fprintf(os.Stderr, "seed %d: send: %v\n", seed, sendErr)
		case closeErr != nil:
			failures++
			fmt.Fprintf(os.Stderr, "seed %d: close: %v\n", seed, closeErr)
		case streamed != want:
			mismatches++
			fmt.Fprintf(os.Stderr, "seed %d: crash-restart verdict %v, uninterrupted %v\n", seed, streamed, want)
		case sess.Stats() == nil || sess.Stats().Check.Events != len(h):
			mismatches++
			got := -1
			if sess.Stats() != nil {
				got = sess.Stats().Check.Events
			}
			fmt.Fprintf(os.Stderr, "seed %d: exactly-once violated: %d events applied, stream has %d\n", seed, got, len(h))
		case streamed != check.Yes:
			violations++
		}
		srv.Close()
	}
	elapsed := time.Since(start)

	fmt.Printf("crash model=%s fault=%q procs=%d ops/proc=%d seeds=%d batch=%d crash-every=%d retain=%v workers=%d\n",
		m.Name(), cfg.fault, cfg.procs, cfg.ops, cfg.seeds, cfg.batch, cfg.every,
		cfg.monitor.Retain, cfg.monitor.Parallelism)
	fmt.Printf("streamed events: %d in %v (%.0f events/s) across %d forced restarts\n",
		events, elapsed.Round(time.Millisecond), float64(events)/elapsed.Seconds(), restarts)
	fmt.Printf("sessions: %d ok, %d failed, %d divergences, %d violations reported\n",
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
