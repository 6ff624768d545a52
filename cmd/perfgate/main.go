// Command perfgate is the CI perf/regression gate. It runs its gates
// in-process and writes their numbers as JSON for the benchmark-trajectory
// artifact:
//
//   - B8 ratio gate: the steady-state verification work of the paper-literal
//     Figure 12 loop body (soak.FullRecheck: flatten, BuildHistory, re-decide
//     the whole prefix on every publication — the same body
//     BenchmarkDecoupledVerify's full arms time) against the incremental
//     pipeline (what cmd/stress -decoupled drives), at ops published
//     operations. CI fails if the speedup falls below -minratio (default
//     100x, far under the recorded 237x-5541x B8 band, so only a real
//     regression trips it).
//
//   - B9 soak gate: the bounded-memory pipeline at reduced scale. CI fails
//     if the retained window exceeds the policy-derived bound — that is,
//     if memory scales with history length again — or if the retained
//     verdict diverges from the unbounded monitor's.
//
//   - B10 allocation gate: the checker on the workloads of
//     BenchmarkCheckerAllocs (internal/soak B10Workloads), measured
//     in-process with testing.Benchmark, one gates[] row per leg. The dense
//     queue and stack legs (the greedy witness path) fail CI above
//     -maxallocs allocs/op — that is, if the interned-memo search core
//     (internal/stateset + the persistent window states of internal/spec)
//     regrows per-node allocation. The pre-PR string-memo checker sat at
//     805–1222 allocs/op on these workloads; the gate (default 400) is
//     ~2.5x the interned checker's measured 60–160, so only a real
//     regression trips it. The frontier/queue leg (the backtracking and
//     frontier-enumeration path: trace.FrontierRounds through a sequential
//     retained monitor with the fast tier off) fails CI above the B/op bound its workload carries
//     (soak.B10Workload.MaxBytes) — that is, if the pooled search arenas or
//     the chain-level state arena stop being reused. It allocated 195 MB/op
//     before they existed and 76 MB/op with them; the bound, 100 MiB, sits
//     between.
//
//   - B11 parallel-scaling gate: the shard-axis workload of
//     BenchmarkParallelCheck (16 balanced dense queue shards through one
//     check.Shards pool, internal/soak B11Specs), measured best-of-5 at 1
//     worker and at 4 workers. CI fails if the 4-worker speedup falls below
//     -minscale (default 1.5x) — that is, if the parallel engine stops
//     overlapping independent verifications. Auto-skipped on hosts with
//     fewer than 4 CPUs, where the ratio measures the scheduler, not the
//     pool.
//
//   - B12 commit-point-cut gate: the never-quiescent soak (internal/soak
//     RunNeverQuiescent, the body behind TestSoakNeverQuiescentB12) at
//     reduced scale. CI fails if the commit-point-cut monitor's retained
//     window exceeds the policy bound, if its verdicts diverge from the
//     unbounded monitor's, or if the degradation control (same stream,
//     quiescent cuts only) unexpectedly stays bounded — which would mean
//     the workload stopped demonstrating the hole the gate guards. Its
//     ingest row (b12-ingest) fails CI if the commit-cut monitor alone
//     allocates more than 800 B per event of BenchmarkCommitCutIngest's
//     stream — that is, if commit cuts or the collector copy the window
//     again (1,135 B/event when they did, 547 since).
//
//   - B13 fast-tier gate: the log-linear decision tier against the exact
//     search on the pathological heavy-tail queue seed (internal/soak
//     RunFastTier, the workload committed at
//     internal/check/testdata/b11_queue_seed2.json). CI fails if the tier's
//     verdict stops matching the search's, or if the explored-steps ratio
//     (Wing–Gong explored configurations / tier peel steps — counters, not
//     wall-clock, so host-independent) falls below -b13minratio (default
//     50x; the recorded figure is ~88x).
//
//   - B14 durable-checkpoint gate: the checkpoint soak (internal/soak
//     RunCheckpointSoak, the body behind TestSoakCheckpointRestoreB14) at
//     reduced scale. The bounded monitor's checkpoint is serialised every
//     few bursts of the never-quiescent stream and restored mid-soak into a
//     clone that ingests the rest alongside the primary. CI fails if the
//     largest envelope exceeds the O(retained window) byte bound — a
//     checkpoint scaling with history length — or if the restored clone's
//     verdicts diverge from the uninterrupted primary's.
//
// The JSON holds only what is gated: the measuring host ({goos, goarch,
// cpus, gomaxprocs, go_version}), so committed records say what hardware
// their numbers mean anything on; one uniform {gate, status, value, bound}
// row per gate (status pass|fail|skip), so the benchmark-trajectory tooling
// can diff runs across PRs; and the overall pass. Every other measured
// number is in the stdout lines. Each gate has a distinct process exit code
// (B8=2, B9=3, B10=4, B11=5, B12=6, B13=7, B14=8; setup failures exit 1; 9
// belonged to the retired B15 gate and is not reused) so CI logs identify
// the tripped gate from the exit status alone. With several failures the
// first tripped gate's code wins.
//
// Usage:
//
//	perfgate                    # all gates, JSON to BENCH_perf_smoke.json
//	perfgate -ops 1024 -soakops 20000 -b12ops 20000 -b14ops 20000 -out path.json
//	perfgate -results benchmarks/results     # timestamped record + regenerated
//	                                         # index.md (the committed convention)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/genlin"
	"repro/internal/soak"
	"repro/internal/spec"
)

// Distinct exit codes so CI logs identify the tripped gate without parsing
// output. Setup failures (a refuted workload, a failed write) exit 1.
const (
	exitOK    = 0
	exitSetup = 1
	exitB8    = 2
	exitB9    = 3
	exitB10   = 4
	exitB11   = 5
	exitB12   = 6
	exitB13   = 7
	exitB14   = 8
)

// b12IngestMaxBytes bounds the B12 ingest row's bytes per event.
const b12IngestMaxBytes = 800

// hostInfo records the measuring host in every gates JSON: benchmark numbers
// without the hardware they were taken on are noise, and skip decisions
// (B11) are only auditable if the artifact says how many CPUs there were.
type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// gateEntry is the uniform per-gate record in the BENCH JSON: one entry per
// gate (per workload for multi-workload gates), status pass|fail|skip.
type gateEntry struct {
	Gate   string  `json:"gate"`
	Status string  `json:"status"`
	Value  float64 `json:"value"`
	Bound  float64 `json:"bound"`
}

// result is the gates JSON: the measuring host, one row per gate and the
// overall verdict.
type result struct {
	Host  hostInfo    `json:"host"`
	Gates []gateEntry `json:"gates"`
	Pass  bool        `json:"pass"`
}

func main() {
	os.Exit(run())
}

func run() int {
	ops := flag.Int("ops", 1024, "published operations for the B8 ratio gate")
	soakOps := flag.Int("soakops", 20000, "published operations for the B9 soak gate")
	b12Ops := flag.Int("b12ops", 20000, "operations for the B12 never-quiescent commit-point-cut gate")
	minRatio := flag.Float64("minratio", 100, "minimum B8 speedup of the incremental pipeline over the Figure 12 full re-check")
	maxAllocs := flag.Int64("maxallocs", 400, "maximum allocs/op for the B10 checker gate")
	minScale := flag.Float64("minscale", 1.5, "minimum 4-worker-vs-1 speedup for the B11 parallel gate (auto-skip below 4 CPUs)")
	b13MinRatio := flag.Float64("b13minratio", 50, "minimum explored-steps ratio (Wing–Gong explored / tier peel steps) for the B13 fast-tier gate")
	b14Ops := flag.Int("b14ops", 20000, "operations for the B14 durable-checkpoint gate")
	out := flag.String("out", "BENCH_perf_smoke.json", "JSON output path (empty = none)")
	resultsDir := flag.String("results", "", "also write the JSON as <dir>/<UTC timestamp>.json and regenerate <dir>/index.md (the benchmarks/results/ convention, docs/benchmarks.md)")
	flag.Parse()

	procs := 4
	m := spec.Counter()
	obj := genlin.Linearizability(m)
	res := result{Host: hostInfo{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}}
	ok := true
	failCode := exitOK
	gate := func(name, status string, value, bound float64, code int) {
		res.Gates = append(res.Gates, gateEntry{Gate: name, Status: status, Value: value, Bound: bound})
		if status == "fail" {
			ok = false
			if failCode == exitOK {
				failCode = code
			}
		}
	}

	// --- B8 ratio gate -----------------------------------------------------
	tuples := soak.Publish(m, procs, *ops)
	start := time.Now()
	if err := soak.FullRecheck(obj, tuples, procs); err != nil {
		fmt.Fprintf(os.Stderr, "full recheck of a correct stream: %v\n", err)
		return exitSetup
	}
	fullNs := time.Since(start).Nanoseconds()

	start = time.Now()
	iv := core.NewIncVerifier(procs, obj)
	for k := 0; k < *ops; k++ {
		iv.IngestTuples(tuples[k : k+1])
		if iv.Verdict() != check.Yes {
			fmt.Fprintln(os.Stderr, "incremental pipeline refuted a correct stream")
			return exitSetup
		}
	}
	incNs := time.Since(start).Nanoseconds()
	ratio := 0.0
	if incNs > 0 {
		ratio = float64(fullNs) / float64(incNs)
	}
	fmt.Printf("B8 gate: ops=%d full=%v incremental=%v ratio=%.0fx (min %.0fx)\n",
		*ops, time.Duration(fullNs), time.Duration(incNs), ratio, *minRatio)
	if ratio < *minRatio {
		fmt.Fprintf(os.Stderr, "FAIL: B8 speedup ratio %.1fx below the %.0fx gate\n", ratio, *minRatio)
		gate("b8", "fail", ratio, *minRatio, exitB8)
	} else {
		gate("b8", "pass", ratio, *minRatio, exitB8)
	}

	// --- B9 soak gate ------------------------------------------------------
	// Same body as TestSoakRetentionB9, at reduced scale (internal/soak).
	start = time.Now()
	sr := soak.Run(m, procs, *soakOps, check.RetentionPolicy{GCBatch: 64})
	fmt.Printf("B9 gate: soak ops=%d retained-events-max=%d (bound %d) discarded=%d in %v\n",
		*soakOps, sr.MaxRetained, sr.Bound, sr.Discarded, time.Since(start))
	switch {
	case sr.DivergedAt >= 0:
		fmt.Fprintf(os.Stderr, "FAIL: B9 verdicts diverged from the unbounded oracle at op %d\n", sr.DivergedAt)
		gate("b9", "fail", float64(sr.MaxRetained), float64(sr.Bound), exitB9)
	case !sr.Yes:
		fmt.Fprintln(os.Stderr, "FAIL: B9 correct stream refuted")
		gate("b9", "fail", float64(sr.MaxRetained), float64(sr.Bound), exitB9)
	case sr.MaxRetained > sr.Bound:
		fmt.Fprintf(os.Stderr, "FAIL: retained window %d events exceeds the %d bound — memory is O(history) again\n",
			sr.MaxRetained, sr.Bound)
		gate("b9", "fail", float64(sr.MaxRetained), float64(sr.Bound), exitB9)
	default:
		gate("b9", "pass", float64(sr.MaxRetained), float64(sr.Bound), exitB9)
	}

	// --- B10 allocation gate -----------------------------------------------
	// The exact workloads of BenchmarkCheckerAllocs (shared via
	// internal/soak, so benchmark and gate cannot drift apart), run
	// in-process via testing.Benchmark so CI needs no bench parsing.
	for _, w := range soak.B10Workloads() {
		if !w.Check() {
			// Checked before benchmarking: a b.Fatal inside testing.Benchmark
			// yields the zero BenchmarkResult, whose 0 allocs/op would sail
			// under the gate.
			fmt.Fprintf(os.Stderr, "FAIL: B10 %s: checker refuted a linearizable history\n", w.Name)
			return exitSetup
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Check()
			}
		})
		if br.N == 0 || br.AllocsPerOp() == 0 {
			fmt.Fprintf(os.Stderr, "FAIL: B10 %s produced no measurement (N=%d)\n", w.Name, br.N)
			return exitSetup
		}
		// One row per leg. The dense legs bound allocs/op under the names
		// they have had since BENCH_PR5; the backtracking leg bounds B/op
		// (soak.B10Workload.MaxBytes says why).
		row := fmt.Sprintf("%s/%d", w.Model.Name(), w.Ops)
		value, bound, unit := br.AllocsPerOp(), *maxAllocs, "allocs/op"
		if w.MaxBytes > 0 {
			row, value, bound, unit = w.Name, br.AllocedBytesPerOp(), w.MaxBytes, "B/op"
		}
		fmt.Printf("B10 gate: %s %d ns/op %d allocs/op %d B/op (max %d %s)\n",
			w.Name, br.NsPerOp(), br.AllocsPerOp(), br.AllocedBytesPerOp(), bound, unit)
		status := "pass"
		if value > bound {
			fmt.Fprintf(os.Stderr, "FAIL: B10 %s allocates %d %s, above the %d gate — the search core regressed\n",
				w.Name, value, unit, bound)
			status = "fail"
		}
		gate("b10:"+row, status, float64(value), float64(bound), exitB10)
	}

	// --- B11 parallel-scaling gate -----------------------------------------
	// The shard-axis workload of BenchmarkParallelCheck (internal/soak), one
	// Shards round per measurement, best-of-5 per worker width so a noisy
	// neighbour cannot fail the gate. Below 4 CPUs the ratio measures the OS
	// scheduler rather than the worker pool, so the gate skips itself — the
	// equivalence and race suites still cover correctness there.
	if runtime.NumCPU() < 4 {
		gate("b11", "skip", 0, *minScale, exitB11)
		fmt.Printf("B11 gate: skipped (%d CPUs < 4; scaling is only meaningful with free cores)\n", runtime.NumCPU())
	} else {
		s := soak.B11Specs()[0] // the dense queue shard set
		hs := s.Histories()
		measure := func(workers int) (int64, bool) {
			best := int64(1) << 62
			for r := 0; r < 5; r++ {
				d, okRun := soak.RunShardCheck(s, hs, workers)
				if !okRun {
					return 0, false
				}
				if d.Nanoseconds() < best {
					best = d.Nanoseconds()
				}
			}
			return best, true
		}
		t1, ok1 := measure(1)
		t4, ok4 := measure(4)
		if !ok1 || !ok4 {
			fmt.Fprintln(os.Stderr, "FAIL: B11 shard check refuted a linearizable history")
			return exitSetup
		}
		scale := 0.0
		if t4 > 0 {
			scale = float64(t1) / float64(t4)
		}
		fmt.Printf("B11 gate: %s shards=%d workers1=%v workers4=%v scale=%.2fx (min %.2fx)\n",
			s.Model.Name(), len(s.Seeds), time.Duration(t1), time.Duration(t4), scale, *minScale)
		if scale < *minScale {
			fmt.Fprintf(os.Stderr, "FAIL: B11 parallel speedup %.2fx below the %.2fx gate — the worker pool stopped scaling\n",
				scale, *minScale)
			gate("b11", "fail", scale, *minScale, exitB11)
		} else {
			gate("b11", "pass", scale, *minScale, exitB11)
		}
	}

	// --- B12 commit-point-cut gate ------------------------------------------
	// The never-quiescent soak (internal/soak, the body behind
	// TestSoakNeverQuiescentB12) at reduced scale: the commit-point-cut
	// monitor must hold a flat, policy-bounded window and stay verdict-
	// identical to the unbounded oracle, while the quiescent-only control on
	// the same (further reduced) stream must demonstrably degrade — if it
	// stops degrading, the workload no longer tests the hole and the gate is
	// lying.
	b12Policy := check.RetentionPolicy{GCBatch: 64}
	start = time.Now()
	br12 := soak.RunNeverQuiescent(spec.Queue(), *b12Ops, b12Policy, true)
	fmt.Printf("B12 gate: never-quiescent ops=%d retained-events-max=%d (bound %d) commit-cuts=%d carried=%d in %v\n",
		*b12Ops, br12.MaxRetained, br12.Bound, br12.CommitCuts, br12.CarriedOps, time.Since(start))
	switch {
	case br12.DivergedAt >= 0:
		fmt.Fprintf(os.Stderr, "FAIL: B12 verdicts diverged from the unbounded oracle at burst %d\n", br12.DivergedAt)
		gate("b12", "fail", float64(br12.MaxRetained), float64(br12.Bound), exitB12)
	case !br12.Yes:
		fmt.Fprintln(os.Stderr, "FAIL: B12 correct never-quiescent stream refuted")
		gate("b12", "fail", float64(br12.MaxRetained), float64(br12.Bound), exitB12)
	case br12.CommitCuts == 0:
		fmt.Fprintln(os.Stderr, "FAIL: B12 commit-point cuts never fired on the never-quiescent stream")
		gate("b12", "fail", float64(br12.MaxRetained), float64(br12.Bound), exitB12)
	case br12.MaxRetained > br12.Bound:
		fmt.Fprintf(os.Stderr, "FAIL: B12 retained window %d events exceeds the %d bound — never-quiescent retention degraded again\n",
			br12.MaxRetained, br12.Bound)
		gate("b12", "fail", float64(br12.MaxRetained), float64(br12.Bound), exitB12)
	default:
		gate("b12", "pass", float64(br12.MaxRetained), float64(br12.Bound), exitB12)
	}
	ctl := soak.RunNeverQuiescent(spec.Queue(), *b12Ops/4, b12Policy, false)
	fmt.Printf("B12 control: quiescent-only retained-events-max=%d of %d events\n", ctl.MaxRetained, ctl.Events)
	if ctl.MaxRetained < ctl.Events {
		fmt.Fprintln(os.Stderr, "FAIL: B12 control collected on a never-quiescent stream — the workload stopped demonstrating the degradation")
		gate("b12-control", "fail", float64(ctl.MaxRetained), float64(ctl.Events), exitB12)
	} else {
		gate("b12-control", "pass", float64(ctl.MaxRetained), float64(ctl.Events), exitB12)
	}
	// The ingest row: bytes allocated per event by the retained commit-cut
	// monitor alone, no oracle, on the wire_nq-shaped stream of
	// BenchmarkCommitCutIngest. A commit cut or GC pass that copies the
	// window again allocates in proportion to the window, which this row
	// sees: 1,135 B/event when both copied it, 547 since both reuse the
	// window's backing. The bound keeps 46 % headroom over 547 and sits
	// 30 % under 1,135.
	ingest := soak.B12IngestDeltas()
	ingestEvents := 0
	for _, d := range ingest {
		ingestEvents += len(d)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ingestYes := soak.RunCommitCutIngest(ingest)
	runtime.ReadMemStats(&ms1)
	bytesPerEvent := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ingestEvents)
	fmt.Printf("B12 ingest: commit-cut monitor alone, %d events, %.0f B/event (max %d)\n",
		ingestEvents, bytesPerEvent, b12IngestMaxBytes)
	switch {
	case !ingestYes:
		fmt.Fprintln(os.Stderr, "FAIL: B12 ingest stream refuted")
		gate("b12-ingest", "fail", bytesPerEvent, b12IngestMaxBytes, exitB12)
	case bytesPerEvent > b12IngestMaxBytes:
		fmt.Fprintf(os.Stderr, "FAIL: B12 ingest allocates %.0f B/event, above the %d gate — commit cuts or GC copy the window again\n",
			bytesPerEvent, b12IngestMaxBytes)
		gate("b12-ingest", "fail", bytesPerEvent, b12IngestMaxBytes, exitB12)
	default:
		gate("b12-ingest", "pass", bytesPerEvent, b12IngestMaxBytes, exitB12)
	}

	// --- B13 fast-tier gate --------------------------------------------------
	// The shared heavy-tail workload (internal/soak RunFastTier, the seed
	// committed under internal/check/testdata/). Both figures are
	// deterministic counters — explored configurations and peel steps — so
	// the gate is exact on every host.
	b13 := soak.RunFastTier()
	b13Ratio := 0.0
	if b13.Steps > 0 {
		b13Ratio = float64(b13.Explored) / float64(b13.Steps)
	}
	fmt.Printf("B13 gate: wg-explored=%d tier-steps=%d ratio=%.1fx (min %.0fx) agree=%v\n",
		b13.Explored, b13.Steps, b13Ratio, *b13MinRatio, b13.Agree)
	switch {
	case !b13.Agree:
		fmt.Fprintln(os.Stderr, "FAIL: B13 fast tier fell back or disagreed with the exact search on the committed seed")
		gate("b13", "fail", b13Ratio, *b13MinRatio, exitB13)
	case b13Ratio < *b13MinRatio:
		fmt.Fprintf(os.Stderr, "FAIL: B13 explored-steps ratio %.1fx below the %.0fx gate — the tier stopped sparing the search\n",
			b13Ratio, *b13MinRatio)
		gate("b13", "fail", b13Ratio, *b13MinRatio, exitB13)
	default:
		gate("b13", "pass", b13Ratio, *b13MinRatio, exitB13)
	}

	// --- B14 durable-checkpoint gate -----------------------------------------
	// The checkpoint soak (internal/soak, the body behind
	// TestSoakCheckpointRestoreB14) at reduced scale: serialised envelopes
	// must stay bounded by the retained window, and a clone restored from a
	// mid-soak checkpoint must stay verdict-identical to the uninterrupted
	// primary for the rest of the stream.
	start = time.Now()
	b14 := soak.RunCheckpointSoak(spec.Queue(), *b14Ops, check.RetentionPolicy{GCBatch: 64}, true)
	fmt.Printf("B14 gate: checkpoint soak ops=%d checkpoints=%d max-bytes=%d (bound %d) restored-at-burst=%d in %v\n",
		*b14Ops, b14.Checkpoints, b14.MaxBytes, b14.Bound, b14.RestoredAt, time.Since(start))
	switch {
	case b14.Err != "":
		fmt.Fprintf(os.Stderr, "FAIL: B14 checkpoint/restore failed mid-soak: %s\n", b14.Err)
		gate("b14", "fail", float64(b14.MaxBytes), float64(b14.Bound), exitB14)
	case b14.DivergedAt >= 0:
		fmt.Fprintf(os.Stderr, "FAIL: B14 restored clone diverged from the uninterrupted primary at burst %d\n", b14.DivergedAt)
		gate("b14", "fail", float64(b14.MaxBytes), float64(b14.Bound), exitB14)
	case !b14.Yes:
		fmt.Fprintln(os.Stderr, "FAIL: B14 correct stream refuted")
		gate("b14", "fail", float64(b14.MaxBytes), float64(b14.Bound), exitB14)
	case b14.Checkpoints == 0 || b14.RestoredAt < 0:
		fmt.Fprintln(os.Stderr, "FAIL: B14 soak exported no checkpoint or never restored — the gate measured nothing")
		gate("b14", "fail", float64(b14.MaxBytes), float64(b14.Bound), exitB14)
	case b14.MaxBytes > b14.Bound:
		fmt.Fprintf(os.Stderr, "FAIL: B14 largest checkpoint %d bytes exceeds the %d bound — checkpoints are O(history) again\n",
			b14.MaxBytes, b14.Bound)
		gate("b14", "fail", float64(b14.MaxBytes), float64(b14.Bound), exitB14)
	default:
		gate("b14", "pass", float64(b14.MaxBytes), float64(b14.Bound), exitB14)
	}

	res.Pass = ok
	if *out != "" || *resultsDir != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshalling results: %v\n", err)
			return exitSetup
		}
		buf = append(buf, '\n')
		if *out != "" {
			if err := os.WriteFile(*out, buf, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", *out, err)
				return exitSetup
			}
			fmt.Printf("wrote %s\n", *out)
		}
		if *resultsDir != "" {
			path, err := writeResults(*resultsDir, buf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "writing results: %v\n", err)
				return exitSetup
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if !ok {
		return failCode
	}
	fmt.Println("perf gates passed")
	return exitOK
}
