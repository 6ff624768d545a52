// Command stress soaks a self-enforced implementation (Figure 11) or the
// decoupled variant (Figure 12) under concurrent load, optionally with
// injected faults, and reports throughput and detection statistics. It is
// the fault-injection harness behind the EXPERIMENTS.md robustness numbers.
//
// Usage:
//
//	stress -model queue -procs 4 -ops 200 -seeds 10
//	stress -model counter -fault stale -rate 16 -procs 4
//	stress -model counter -decoupled -verifiers 3 -ops 2000
//	stress -model counter -decoupled -retain -ops 25000       # bounded-memory soak
//	stress -model queue -decoupled -ops 5000 -cpuprofile cpu.out -memprofile mem.out
//
// With -net the soak runs against a linmond monitoring service instead of an
// in-process pipeline: each seed streams a generated history to the server
// (one session per seed, monitor configuration carried in the open frame)
// and cross-checks it against an in-process monitor run on the same batches:
// the verdicts must agree and the server must have applied every event
// exactly once. -fault in net mode perturbs the recorded history
// (trace.Mutate) rather than wrapping an implementation:
//
//	linmond -listen 127.0.0.1:7474 &
//	stress -net -addr 127.0.0.1:7474 -model queue -procs 4 -ops 2000
//	stress -net -addr 127.0.0.1:7474 -model stack -retain -fault mutate
//
// With -crash-every N the soak runs against its own in-process durable
// linmond (state dir on a fault-injectable filesystem) and force-restarts it
// every N batches — every other restart with the final checkpoint failing —
// diffing the crash-restart verdicts and applied-event counts against an
// uninterrupted monitor:
//
//	stress -crash-every 5 -model queue -procs 4 -ops 500
//	stress -crash-every 5 -model queue -retain -fault mutate
//
// With -replay the soak streams a recorded trace (a history-interchange
// envelope, e.g. the committed corpus under testdata/traces/) through a
// linmond server instead of generating load, pacing batches by the trace's
// recorded timestamps and cross-checking the streamed verdict against a
// local monitor fed the same batches:
//
//	stress -replay testdata/traces/redis-queue.json               # in-process server, full speed
//	stress -replay testdata/traces/etcd-register.json -speed 1    # as recorded
//	stress -replay testdata/traces/zk-set.json -addr 127.0.0.1:7474 -speed 10
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/genlin"
	"repro/internal/impls"
	"repro/internal/soak"
	"repro/internal/spec"
	"repro/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	model := flag.String("model", "queue", "object: queue, stack, set, pqueue, counter, register, consensus")
	fault := flag.String("fault", "", "fault to inject: phantom, duplicate, drop, stale (empty = correct)")
	rate := flag.Uint64("rate", 8, "one in rate eligible operations is corrupted")
	procs := flag.Int("procs", 4, "concurrent processes")
	ops := flag.Int("ops", 100, "operations per process per run")
	seeds := flag.Int("seeds", 5, "independent runs")
	decoupled := flag.Bool("decoupled", false, "soak the decoupled variant (Figure 12) instead of the self-enforced one")
	verifiers := flag.Int("verifiers", 3, "decoupled verifier goroutines (1 dispatcher + scanners)")
	retain := flag.Bool("retain", false, "decoupled: bounded-memory retention (GC committed prefixes behind the frontier)")
	commitcuts := flag.Bool("commitcuts", false, "retention: commit-point-order cuts for strongly-ordered models (queue, stack, pqueue) — retention stays bounded on streams that never quiesce")
	workers := flag.Int("workers", 1, "decoupled: parallel segment-search workers inside the monitor (requires -decoupled -retain)")
	fasttier := flag.Bool("fasttier", true, "decoupled: log-linear fast decision tier inside the incremental monitor")
	gcbatch := flag.Int("gcbatch", 0, "retention: GC batch size in events (0 = default)")
	report := flag.Duration("report", 2*time.Second, "retention: live heap/retained-ops reporting interval (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the soak to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken at soak end to this file")
	netMode := flag.Bool("net", false, "stream the soak to a linmond server instead of an in-process pipeline")
	addr := flag.String("addr", "127.0.0.1:7474", "net: linmond server address")
	netbatch := flag.Int("netbatch", 128, "net and crash modes: events per wire batch")
	crashEvery := flag.Int("crash-every", 0, "kill and restart an in-process durable linmond every N batches, diffing verdicts against an uninterrupted monitor (0 = off)")
	replay := flag.String("replay", "", "replay a recorded trace (interchange envelope, e.g. testdata/traces/redis-queue.json) through linmond instead of generating load; streams via the bounded-memory reader and cross-checks against a local monitor")
	speed := flag.Float64("speed", 0, "replay: pace factor over the trace's recorded timestamps (1 = as recorded, 2 = twice as fast, 0 = as fast as the wire accepts)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	// The monitor configuration every mode hands its monitors; the decoupled
	// mode's flag checks below reject the combinations it cannot honour.
	monitor := check.Config{NoFastTier: !*fasttier}
	if *workers > 1 {
		monitor.Parallelism = *workers
	}
	if *retain {
		monitor.Retain = true
		monitor.Retention = check.RetentionPolicy{GCBatch: *gcbatch, CommitCuts: *commitcuts}
	}

	if *replay != "" {
		if *netMode || *crashEvery != 0 || *decoupled || *fault != "" {
			fmt.Fprintln(os.Stderr, "-replay streams a recorded trace; it is incompatible with -net, -crash-every, -decoupled and -fault")
			return 2
		}
		// -model and -addr keep their defaults for the generator modes; for
		// replay the trace's envelope supplies the model and the server is
		// in-process unless the flag was given explicitly.
		replayModel, replayAddr := "", ""
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "model":
				replayModel = *model
			case "addr":
				replayAddr = *addr
			}
		})
		if err := monitor.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "monitor config: %v\n", err)
			return 2
		}
		return runReplay(*replay, replayModel, soak.StreamConfig{
			Addr: replayAddr, Speed: *speed, Batch: *netbatch, Monitor: monitor,
		})
	}
	if *speed != 0 {
		fmt.Fprintln(os.Stderr, "-speed paces a -replay; it has no effect on generated load")
		return 2
	}

	m, ok := spec.ByName(*model)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		return 2
	}

	if *netMode || *crashEvery != 0 {
		mode := "net"
		if *crashEvery != 0 {
			mode = "crash"
		}
		if *netMode && *crashEvery != 0 {
			fmt.Fprintln(os.Stderr, "-crash-every runs its own in-process server; it is incompatible with -net")
			return 2
		}
		if *crashEvery < 0 {
			fmt.Fprintf(os.Stderr, "-crash-every %d: need a positive batch interval\n", *crashEvery)
			return 2
		}
		if *decoupled {
			fmt.Fprintf(os.Stderr, "-%s replaces the in-process pipeline; it is incompatible with -decoupled\n", mode)
			return 2
		}
		if *netbatch < 1 {
			fmt.Fprintf(os.Stderr, "-netbatch %d: need at least one event per batch\n", *netbatch)
			return 2
		}
		if *fault != "" && *fault != "mutate" {
			// These modes stream a recorded history, so there is no faulty
			// implementation to wrap; the only fault is a perturbed record.
			fmt.Fprintf(os.Stderr, "%s mode supports -fault mutate (trace perturbation), not %q\n", mode, *fault)
			return 2
		}
		if err := monitor.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "monitor config: %v\n", err)
			return 2
		}
		cfg := wireCfg{
			addr: *addr, every: *crashEvery, batch: *netbatch, fault: *fault,
			procs: *procs, ops: *ops, seeds: *seeds, monitor: monitor,
		}
		if *crashEvery != 0 {
			cfg.addr = ""
		}
		return runWire(m, cfg)
	}

	var mode impls.FaultMode
	switch *fault {
	case "":
	case "phantom":
		mode = impls.PhantomValue
	case "duplicate":
		mode = impls.DuplicateValue
	case "drop":
		mode = impls.DropUpdate
	case "stale":
		mode = impls.StaleRead
	default:
		fmt.Fprintf(os.Stderr, "unknown fault %q\n", *fault)
		return 2
	}

	obj := genlin.Linearizability(m)
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "-workers %d: the pool needs at least one worker\n", *workers)
		return 2
	}
	if *workers > 1 && !*decoupled {
		fmt.Fprintln(os.Stderr, "-workers requires -decoupled (only the decoupled monitor runs the parallel segment engine)")
		return 2
	}
	if *workers > 1 && !*retain {
		// Without retention the monitor keeps a single-state (witness)
		// frontier, so the pool would never fan out: every -workers value
		// would measure the same sequential run, which is worse than an error.
		fmt.Fprintln(os.Stderr, "-workers > 1 requires -retain (only the exact multi-state frontier of the retention mode has independent states to fan out across)")
		return 2
	}
	if *commitcuts && !*retain {
		fmt.Fprintln(os.Stderr, "-commitcuts requires -retain (commit-point cuts are a retention discipline)")
		return 2
	}
	fasttierSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fasttier" {
			fasttierSet = true
		}
	})
	if fasttierSet && !*decoupled {
		fmt.Fprintln(os.Stderr, "-fasttier requires -decoupled (only the decoupled monitor runs the incremental pipeline the tier accelerates)")
		return 2
	}
	if *decoupled {
		cfg := decoupledCfg{
			fault: *fault, rate: *rate, procs: *procs, ops: *ops, seeds: *seeds,
			verifiers: *verifiers, workers: *workers,
			report: *report, monitor: monitor,
		}
		return runDecoupled(m, obj, mode, cfg)
	}
	if *retain {
		fmt.Fprintln(os.Stderr, "-retain requires -decoupled")
		return 2
	}
	var totalOps, totalErrs atomic.Int64
	detectedRuns := 0
	start := time.Now()
	for seed := 0; seed < *seeds; seed++ {
		inner := impls.ForModel(m)
		if mode != 0 {
			inner = impls.NewFaulty(inner, mode, *rate, uint64(seed))
		}
		e := core.NewEnforced(inner, *procs, obj, nil)
		var uniq trace.UniqSource
		var wg sync.WaitGroup
		var runErrs atomic.Int64
		for p := 0; p < *procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				gen := trace.NewOpGen(m.Name(), int64(seed)*101+int64(p), &uniq)
				for i := 0; i < *ops; i++ {
					_, rep := e.Apply(p, gen.Next())
					totalOps.Add(1)
					if rep != nil {
						runErrs.Add(1)
						totalErrs.Add(1)
						return // stability: every further op would error too
					}
				}
			}(p)
		}
		wg.Wait()
		if runErrs.Load() > 0 {
			detectedRuns++
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("model=%s fault=%q rate=%d procs=%d ops/proc=%d runs=%d\n",
		m.Name(), *fault, *rate, *procs, *ops, *seeds)
	fmt.Printf("verified ops: %d in %v (%.0f ops/s)\n",
		totalOps.Load(), elapsed.Round(time.Millisecond), float64(totalOps.Load())/elapsed.Seconds())
	fmt.Printf("runs with ERROR: %d/%d\n", detectedRuns, *seeds)
	if mode == 0 && totalErrs.Load() > 0 {
		fmt.Fprintln(os.Stderr, "FALSE ERRORS on a correct implementation")
		return 1
	}
	if mode != 0 && detectedRuns == 0 {
		fmt.Fprintln(os.Stderr, "no run detected the injected faults (raise -ops or lower -rate)")
		return 1
	}
	return 0
}

// decoupledCfg carries the decoupled soak's flag values.
type decoupledCfg struct {
	fault      string
	rate       uint64
	procs, ops int
	seeds      int
	verifiers  int
	workers    int
	report     time.Duration
	monitor    check.Config // the dispatcher monitor's configuration
}

// runDecoupled soaks D_{O,A} (Figure 12): producers never wait for
// verification, the verifier pipeline reports asynchronously, and Close
// performs a final drain, so by the end of each run every published tuple
// has been verified. With -retain the pipeline garbage-collects committed
// prefixes and the soak reports live heap and retained-ops numbers.
func runDecoupled(m spec.Model, obj genlin.Object, mode impls.FaultMode, cfg decoupledCfg) int {
	var totalOps atomic.Int64
	detectedRuns := 0
	var agg core.DecoupledStats
	aggWorkers := make([]check.WorkerStat, cfg.workers)
	start := time.Now()
	for seed := 0; seed < cfg.seeds; seed++ {
		inner := impls.ForModel(m)
		if mode != 0 {
			inner = impls.NewFaulty(inner, mode, cfg.rate, uint64(seed))
		}
		var reports atomic.Int64
		d := core.NewDecoupled(inner, cfg.procs, cfg.verifiers, obj,
			func(core.Report) { reports.Add(1) }, core.WithDecoupledConfig(cfg.monitor))
		stopReport := make(chan struct{})
		var reportWg sync.WaitGroup
		if cfg.monitor.Retain && cfg.report > 0 {
			reportWg.Add(1)
			go func() {
				defer reportWg.Done()
				tick := time.NewTicker(cfg.report)
				defer tick.Stop()
				for {
					select {
					case <-stopReport:
						return
					case <-tick.C:
						var ms runtime.MemStats
						runtime.ReadMemStats(&ms)
						st := d.Stats()
						fmt.Printf("live: heap=%.1fMiB produced=%d retained-ops=%d retained-events=%d discarded-events=%d released-nodes=%d\n",
							float64(ms.HeapAlloc)/(1<<20), totalOps.Load(),
							st.Verify.RetainedTuples, st.Verify.Check.RetainedEvents,
							st.Verify.Check.DiscardedEvents, st.ResultNodesReleased)
					}
				}
			}()
		}
		var uniq trace.UniqSource
		var wg sync.WaitGroup
		for p := 0; p < cfg.procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				gen := trace.NewOpGen(m.Name(), int64(seed)*101+int64(p), &uniq)
				for i := 0; i < cfg.ops; i++ {
					d.Apply(p, gen.Next())
					totalOps.Add(1)
				}
			}(p)
		}
		wg.Wait()
		d.Close()
		close(stopReport)
		reportWg.Wait()
		st := d.Stats()
		agg.Scans += st.Scans
		agg.Reports += st.Reports
		agg.ResultNodesReleased += st.ResultNodesReleased
		agg.Verify.Passes += st.Verify.Passes
		agg.Verify.Tuples += st.Verify.Tuples
		agg.Verify.Groups += st.Verify.Groups
		agg.Verify.Rebuilds += st.Verify.Rebuilds
		agg.Verify.Deferrals += st.Verify.Deferrals
		agg.Verify.DiscardedTuples += st.Verify.DiscardedTuples
		agg.Verify.AnnNodesReleased += st.Verify.AnnNodesReleased
		agg.Verify.Check.SegChecks += st.Verify.Check.SegChecks
		agg.Verify.Check.Fallbacks += st.Verify.Check.Fallbacks
		agg.Verify.Check.FastTierHits += st.Verify.Check.FastTierHits
		agg.Verify.Check.FastTierFallbacks += st.Verify.Check.FastTierFallbacks
		ab, b := &agg.Verify.Check.TierAbstain, st.Verify.Check.TierAbstain
		ab.Model += b.Model
		ab.Duplicate += b.Duplicate
		ab.PendingRemove += b.PendingRemove
		ab.Residency += b.Residency
		ab.NoPrefix += b.NoPrefix
		agg.Verify.Check.Compactions += st.Verify.Check.Compactions
		agg.Verify.Check.GCRuns += st.Verify.Check.GCRuns
		agg.Verify.Check.DiscardedEvents += st.Verify.Check.DiscardedEvents
		// Gauges, not counters: keep the last run's final state.
		agg.Verify.RetainedTuples = st.Verify.RetainedTuples
		agg.Verify.Check.RetainedEvents = st.Verify.Check.RetainedEvents
		for i, w := range st.Workers {
			if i < len(aggWorkers) {
				aggWorkers[i].Tasks += w.Tasks
				aggWorkers[i].Explored += w.Explored
				aggWorkers[i].Cancelled += w.Cancelled
			}
		}
		if reports.Load() > 0 {
			detectedRuns++
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("decoupled model=%s fault=%q rate=%d procs=%d ops/proc=%d runs=%d verifiers=%d retain=%v commitcuts=%v workers=%d fasttier=%v\n",
		m.Name(), cfg.fault, cfg.rate, cfg.procs, cfg.ops, cfg.seeds, cfg.verifiers,
		cfg.monitor.Retain, cfg.monitor.Retention.CommitCuts, cfg.workers, !cfg.monitor.NoFastTier)
	fmt.Printf("produced ops: %d in %v (%.0f ops/s)\n",
		totalOps.Load(), elapsed.Round(time.Millisecond), float64(totalOps.Load())/elapsed.Seconds())
	fmt.Printf("pipeline: scans=%d passes=%d tuples=%d groups=%d rebuilds=%d segchecks=%d fallbacks=%d compactions=%d reports=%d\n",
		agg.Scans, agg.Verify.Passes, agg.Verify.Tuples, agg.Verify.Groups, agg.Verify.Rebuilds,
		agg.Verify.Check.SegChecks, agg.Verify.Check.Fallbacks, agg.Verify.Check.Compactions, agg.Reports)
	ab := agg.Verify.Check.TierAbstain
	fmt.Printf("fast tier: hits=%d fallbacks=%d abstained: model=%d duplicate-value=%d pending-remove=%d residency=%d no-prefix=%d (0/0 is expected with -fasttier=false or a model outside the tier's fragment)\n",
		agg.Verify.Check.FastTierHits, agg.Verify.Check.FastTierFallbacks,
		ab.Model, ab.Duplicate, ab.PendingRemove, ab.Residency, ab.NoPrefix)
	if cfg.monitor.Retain {
		fmt.Printf("retention: gcruns=%d discarded-events=%d retained-events(last run)=%d discarded-tuples=%d retained-tuples(last run)=%d deferrals=%d released: result-nodes=%d ann-nodes=%d\n",
			agg.Verify.Check.GCRuns, agg.Verify.Check.DiscardedEvents, agg.Verify.Check.RetainedEvents,
			agg.Verify.DiscardedTuples, agg.Verify.RetainedTuples, agg.Verify.Deferrals,
			agg.ResultNodesReleased, agg.Verify.AnnNodesReleased)
	}
	if cfg.monitor.Retention.CommitCuts {
		fmt.Printf("commit cuts: cuts=%d carried-ops=%d (0 is expected when every burst quiesces or the model is not strongly ordered)\n",
			agg.Verify.Check.CommitCuts, agg.Verify.Check.CarriedOps)
	}
	if cfg.workers > 1 {
		// Scheduling-dependent diagnostics (check.WorkerStat): which slot did
		// how much, and how much speculation the first-witness cancel killed.
		fmt.Printf("search workers:")
		for i, w := range aggWorkers {
			fmt.Printf(" [%d] tasks=%d explored=%d cancelled=%d", i, w.Tasks, w.Explored, w.Cancelled)
		}
		fmt.Println()
	}
	fmt.Printf("runs with ERROR report: %d/%d\n", detectedRuns, cfg.seeds)
	if mode == 0 && detectedRuns > 0 {
		fmt.Fprintln(os.Stderr, "FALSE ERRORS on a correct implementation")
		return 1
	}
	if mode != 0 && detectedRuns == 0 {
		fmt.Fprintln(os.Stderr, "no run detected the injected faults (raise -ops or lower -rate)")
		return 1
	}
	return 0
}
