// Package soak is the shared body of the benchmark-family acceptance
// checks that run both as tier-1 tests/benchmarks and inside the
// cmd/perfgate CI gate: the B9 bounded-memory soak (stream shape, oracle
// comparison, window bound), the B10 checker-allocation workloads (model,
// concurrency, seed) and the B11 parallel shard-verification workload
// (shard count, histories, worker widths). Sharing one definition keeps the
// benchmarks and their gates from drifting onto different workloads. The B8
// baseline (the paper-literal Figure 12 loop body), the B12 never-quiescent commit-cut soak, the B13 fast-tier workload and the
// B14 durable-checkpoint soak live here for the same reason.
package soak

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/check/loglin"
	"repro/internal/core"
	"repro/internal/genlin"
	"repro/internal/history"
	"repro/internal/impls"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Result carries the B9 and B12 acceptance numbers.
type Result struct {
	Events      int  // events in the monitored stream
	MaxRetained int  // retained-events high-water mark across the stream
	Bound       int  // window bound MaxRetained must stay under
	Discarded   int  // events GC'd by the retained monitor
	Retained    int  // events still held at the end
	DivergedAt  int  // publication index of the first verdict divergence; -1 if none
	Yes         bool // final verdict of the retained monitor
	CommitCuts  int  // commit-point cuts committed (B12 only; 0 for B9)
	CarriedOps  int  // producer invocations carried across commit cuts (B12 only)
}

// Ok reports whether the soak met the B9 acceptance criteria: a window
// bounded by the policy, verdicts identical to the unbounded oracle, and a
// clean final verdict on the correct stream.
func (r Result) Ok() bool {
	return r.Yes && r.DivergedAt < 0 && r.MaxRetained <= r.Bound
}

// WindowBound is the retained-window bound the B9 gate enforces: a GC batch
// plus generous room for the in-flight segment and the events that
// accumulate between two quiescent cuts — far below any long stream's
// length.
func WindowBound(p check.RetentionPolicy) int {
	gb := p.GCBatch
	if gb <= 0 {
		gb = 64 // check.RetentionPolicy's default
	}
	return 4*gb + 256
}

// Run streams ops published operations (procs producers, round-robin
// through A*) through two pipelines — retained under policy, unbounded as
// the oracle — comparing verdicts at every publication. The two pipelines
// get separate but deterministic-identical streams: retention truncates the
// announce lists it consumes and must not share them with the oracle.
func Run(m spec.Model, procs, ops int, policy check.RetentionPolicy) Result {
	obj := genlin.Linearizability(m)
	retTuples := Publish(m, procs, ops)
	unbTuples := Publish(m, procs, ops)
	retained := core.NewIncVerifier(procs, obj, core.WithVerifierConfig(check.Config{Retain: true, Retention: policy}))
	unbounded := core.NewIncVerifier(procs, obj)
	res := Result{Events: 2 * ops, Bound: WindowBound(policy), DivergedAt: -1}
	for k := 0; k < ops; k++ {
		retained.IngestTuples(retTuples[k : k+1])
		unbounded.IngestTuples(unbTuples[k : k+1])
		if res.DivergedAt < 0 && retained.Verdict() != unbounded.Verdict() {
			res.DivergedAt = k
		}
		if r := retained.Stats().Check.RetainedEvents; r > res.MaxRetained {
			res.MaxRetained = r
		}
	}
	res.Discarded = retained.Stats().Check.DiscardedEvents
	res.Retained = retained.Stats().Check.RetainedEvents
	res.Yes = retained.Verdict() == check.Yes
	return res
}

// Publish generates the sketch of an ops-operation run over procs
// producers, applied round-robin through A* — the stream shape behind the
// B8 and B9 measurements.
func Publish(m spec.Model, procs, ops int) []core.Tuple {
	drv := core.NewDRV(impls.ForModel(m), procs)
	var uniq trace.UniqSource
	gen := trace.NewOpGen(m.Name(), 17, &uniq)
	tuples := make([]core.Tuple, 0, ops)
	for i := 0; i < ops; i++ {
		p := i % procs
		op := gen.Next()
		y, view := drv.Apply(p, op)
		tuples = append(tuples, core.Tuple{Proc: p, Op: op, Res: y, View: view})
	}
	return tuples
}

// FullRecheck is the B8 baseline: the body of the paper's Figure 12
// verifier loop (§9.2, Lines 06–12) run once per publication of tuples —
// flatten the sketch's first k tuples, rebuild X(τ) with core.BuildHistory
// and re-decide membership of the whole prefix, for every k. It returns the
// first prefix that fails to assemble or is refuted. BenchmarkDecoupledVerify
// and the cmd/perfgate B8 gate both time this one body, so the baseline they
// compare the incremental pipeline against cannot drift apart.
func FullRecheck(obj genlin.Object, tuples []core.Tuple, procs int) error {
	for k := 1; k <= len(tuples); k++ {
		x, err := core.BuildHistory(tuples[:k], procs)
		if err != nil {
			return fmt.Errorf("prefix %d: %w", k, err)
		}
		if !obj.Contains(x) {
			return fmt.Errorf("prefix %d refuted", k)
		}
	}
	return nil
}

// B12Models returns the strongly-ordered model set of the B12 commit-point-
// cut family: the models implementing spec.StronglyOrdered, for which
// commit-point-order cuts are available.
func B12Models() []spec.Model {
	return []spec.Model{spec.Queue(), spec.Stack(), spec.PQueue()}
}

// B12Burst is the append granularity of the B12 runs: events per Append.
const B12Burst = 64

// RunNeverQuiescent is the shared body of the B12 acceptance checks
// (TestSoakNeverQuiescentB12, BenchmarkCommitCutSoak, the cmd/perfgate B12
// gate): it streams the never-quiescent workload (trace.NeverQuiescent — no
// globally quiescent point over the whole stream) through a bounded monitor
// under policy and through the unbounded oracle monitor, comparing verdicts
// at every burst. With commitCuts the bounded monitor runs commit-point-
// order cuts and its window must stay flat; without (the degradation
// control) quiescent-cut retention never finds a cut and the window grows
// with the stream — the ROADMAP hole B12 exists to close. workers > 1 runs
// the bounded monitor's parallel engine.
func RunNeverQuiescent(m spec.Model, ops, workers int, policy check.RetentionPolicy, commitCuts bool) Result {
	policy.CommitCuts = commitCuts
	h := trace.NeverQuiescent(m, 29, 5, ops)
	cfg := check.Config{Retain: true, Retention: policy}
	if workers > 1 {
		cfg.Parallelism = workers
	}
	retained := check.NewIncremental(m, check.WithConfig(cfg))
	oracle := check.NewIncremental(m)
	res := Result{Events: len(h), Bound: WindowBound(policy), DivergedAt: -1}
	for k := 0; len(h) > 0; k++ {
		n := B12Burst
		if n > len(h) {
			n = len(h)
		}
		vr := retained.Append(h[:n])
		vo := oracle.Append(h[:n])
		h = h[n:]
		if res.DivergedAt < 0 && vr != vo {
			res.DivergedAt = k
		}
		if r := retained.Stats().RetainedEvents; r > res.MaxRetained {
			res.MaxRetained = r
		}
	}
	st := retained.Stats()
	res.Discarded = st.DiscardedEvents
	res.Retained = st.RetainedEvents
	res.CommitCuts = st.CommitCuts
	res.CarriedOps = st.CarriedOps
	res.Yes = retained.Verdict() == check.Yes
	return res
}

// B14Every is the checkpoint cadence of the B14 durable-state soak: bursts
// between checkpoint exports.
const B14Every = 16

// B14ByteBound is the serialised-checkpoint size bound the B14 gate
// enforces: a generous per-event allowance over the retained-window bound
// plus fixed envelope headroom (config, planner, frontier bookkeeping) — a
// checkpoint is O(retained window), never O(history).
func B14ByteBound(p check.RetentionPolicy) int {
	return 256*WindowBound(p) + 64<<10
}

// B14Result carries the B14 durable-checkpoint acceptance numbers.
type B14Result struct {
	Events      int    // events in the monitored stream
	Checkpoints int    // envelopes exported during the soak
	MaxBytes    int    // largest serialised checkpoint (JSON bytes)
	Bound       int    // byte bound MaxBytes must stay under
	RestoredAt  int    // burst index where the mid-soak clone was restored; -1 if never
	DivergedAt  int    // burst index of the first primary/clone verdict divergence; -1 if none
	Err         string // first checkpoint or restore failure; "" if none
	Yes         bool   // final verdict of the primary monitor
}

// Ok reports whether the soak met the B14 acceptance criteria: checkpoints
// bounded by the retained window, a clean round trip mid-soak, and a clone
// restored from that checkpoint staying verdict-identical to the
// uninterrupted primary for the rest of the stream.
func (r B14Result) Ok() bool {
	return r.Yes && r.Err == "" && r.DivergedAt < 0 &&
		r.Checkpoints > 0 && r.RestoredAt >= 0 && r.MaxBytes <= r.Bound
}

// RunCheckpointSoak is the shared body of the B14 acceptance checks
// (TestSoakCheckpointRestoreB14, the cmd/perfgate B14 gate): the bounded
// monitor streams the never-quiescent B12 workload while its checkpoint is
// exported and serialised every B14Every bursts, tracking the largest
// envelope against the O(retained window) byte bound. At the first
// checkpoint past the midpoint the envelope is restored into a clone
// (through JSON, the durable representation) which then ingests the same
// remaining bursts as the primary, comparing verdicts at every burst — the
// crash-restart contract with the crash at an arbitrary point and the
// recovery judged against the uninterrupted run.
func RunCheckpointSoak(m spec.Model, ops, workers int, policy check.RetentionPolicy, commitCuts bool) B14Result {
	policy.CommitCuts = commitCuts
	h := trace.NeverQuiescent(m, 29, 5, ops)
	cfg := check.Config{Retain: true, Retention: policy}
	if workers > 1 {
		cfg.Parallelism = workers
	}
	primary := check.NewIncremental(m, check.WithConfig(cfg))
	res := B14Result{Events: len(h), Bound: B14ByteBound(policy), RestoredAt: -1, DivergedAt: -1}
	fail := func(k int, err error) {
		if res.Err == "" {
			res.Err = fmt.Sprintf("burst %d: %v", k, err)
		}
	}
	var clone *check.Incremental
	mid := len(h) / B12Burst / 2
	for k := 0; len(h) > 0 && res.Err == ""; k++ {
		n := B12Burst
		if n > len(h) {
			n = len(h)
		}
		vp := primary.Append(h[:n])
		if clone != nil {
			if vc := clone.Append(h[:n]); vc != vp && res.DivergedAt < 0 {
				res.DivergedAt = k
			}
		}
		h = h[n:]
		if k%B14Every != 0 && !(clone == nil && k >= mid) {
			continue
		}
		img, err := primary.Checkpoint()
		if err != nil {
			fail(k, err)
			break
		}
		raw, err := json.Marshal(img)
		if err != nil {
			fail(k, err)
			break
		}
		res.Checkpoints++
		if len(raw) > res.MaxBytes {
			res.MaxBytes = len(raw)
		}
		if clone == nil && k >= mid {
			var dec check.MonitorImage
			if err := json.Unmarshal(raw, &dec); err != nil {
				fail(k, err)
				break
			}
			c, err := check.RestoreIncremental(&dec)
			if err != nil {
				fail(k, err)
				break
			}
			if c.Verdict() != vp {
				fail(k, fmt.Errorf("restored verdict %v, primary %v", c.Verdict(), vp))
				break
			}
			clone, res.RestoredAt = c, k
		}
	}
	res.Yes = primary.Verdict() == check.Yes
	return res
}

// B10Workload is one leg of the B10 checker-allocation family. Check runs
// the measured body once and reports whether the checker accepted (every
// B10 input is linearizable).
type B10Workload struct {
	Name  string // benchmark leg: "queue/ops=64", "frontier/queue"
	Model spec.Model
	Ops   int
	// MaxBytes, where set, makes the leg's perfgate row bound B/op instead
	// of allocs/op: the backtracking leg allocates per explored state, so
	// bytes are what a regrown arena shows up in.
	MaxBytes int64
	Check    func() bool
}

// b10FrontierRounds is the length of the frontier/queue leg: enough rounds
// that the pooled arenas reach their steady-state size and the one-off
// growth is a small share of B/op.
const b10FrontierRounds = 16

// b10FrontierMaxBytes is the frontier/queue leg's B/op bound: 195 MB/op
// before the search arenas were pooled, 76 MB/op since.
const b10FrontierMaxBytes = 100 << 20

// B10Workloads returns the canonical B10 workload set, shared by
// BenchmarkCheckerAllocs (bench_test.go) and the cmd/perfgate allocation
// gate so the benchmark and the CI gate cannot drift onto different
// histories.
//
//   - <model>/ops=N: the one-shot checker on a dense 4-process random
//     linearizable history under a fixed seed. The witness is found greedily,
//     so this is the no-backtrack path.
//   - frontier/queue: trace.FrontierRounds (late reveal order) through a
//     fresh sequential check.Incremental under Config{Retain: true} — every
//     round enumerates a 6-state frontier and exhausts five refuting searches,
//     so this is the backtracking and enumeration path the dense legs never
//     reach.
func B10Workloads() []B10Workload {
	var ws []B10Workload
	for _, d := range []struct {
		m   spec.Model
		ops int
	}{{spec.Queue(), 64}, {spec.Queue(), 256}, {spec.Stack(), 64}, {spec.Stack(), 256}} {
		m, h := d.m, trace.RandomLinearizable(d.m, 7, 4, d.ops)
		ws = append(ws, B10Workload{
			Name: fmt.Sprintf("%s/ops=%d", m.Name(), d.ops), Model: m, Ops: d.ops,
			Check: func() bool { return check.IsLinearizable(m, h) },
		})
	}
	bursts := trace.FrontierRounds(b10FrontierRounds, false)
	ops := 0
	for _, b := range bursts {
		ops += len(b) / 2
	}
	ws = append(ws, B10Workload{
		Name: "frontier/queue", Model: spec.Queue(), Ops: ops, MaxBytes: b10FrontierMaxBytes,
		Check: func() bool {
			inc := check.NewIncremental(spec.Queue(), check.WithConfig(check.Config{Retain: true}))
			for _, b := range bursts {
				if inc.Append(b) != check.Yes {
					return false
				}
			}
			return true
		},
	})
	return ws
}

// B11Spec names one shard-axis workload of the B11 parallel-check family:
// one independent dense Procs-process history of Ops operations per seed,
// verified through one check.Shards worker pool. Shards are independent by
// construction, so this is the fan-out unit a deployment watching many
// objects scales across cores with.
type B11Spec struct {
	Model spec.Model
	Seeds []int64 // one shard per seed
	Procs int
	Ops   int
}

// B11Specs returns the canonical B11 shard workloads, shared by
// BenchmarkParallelCheck (bench_test.go) and the cmd/perfgate parallel-
// scaling gate so the benchmark and the gate cannot drift apart. The seed
// lists are pinned to histories whose one-shot check cost is moderate and
// comparable (tens of microseconds to low milliseconds on the reference
// host): the Wing–Gong search has a heavy cost tail on dense random queue
// histories, and a shard set dominated by one pathological seed measures
// that seed, not the worker pool — a scaling workload needs balanced
// independent units. The checker is deterministic, so the balance property
// is a property of the seeds, not of the host.
func B11Specs() []B11Spec {
	return []B11Spec{
		{spec.Queue(), []int64{1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 20}, 4, 96},
		{spec.Stack(), []int64{1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13, 14, 15, 16, 18, 19}, 4, 96},
		{spec.Set(), []int64{1, 2, 3, 5, 8, 9, 10, 12, 14, 15, 22, 23, 25, 26, 31, 37}, 4, 96},
		{spec.PQueue(), []int64{1, 2, 3, 7, 9, 10, 11, 12, 13, 15, 18, 20, 22, 23, 25, 28}, 4, 96},
	}
}

// Histories generates the deterministic per-shard histories of the spec.
func (s B11Spec) Histories() []history.History {
	hs := make([]history.History, len(s.Seeds))
	for i, seed := range s.Seeds {
		hs[i] = trace.RandomLinearizable(s.Model, seed, s.Procs, s.Ops)
	}
	return hs
}

// RunShardCheck verifies every shard's history through one check.Shards
// round at the given worker width, reporting the wall time and whether every
// shard accepted. Monitors are built fresh inside the timed region — shard
// setup is part of the per-round verification cost being overlapped.
func RunShardCheck(s B11Spec, hs []history.History, workers int) (time.Duration, bool) {
	models := make([]spec.Model, len(hs))
	deltas := make([]history.History, len(hs))
	for i := range hs {
		models[i] = s.Model
		deltas[i] = hs[i]
	}
	start := time.Now()
	sh := check.NewShards(models, workers)
	verdicts := sh.Append(deltas)
	elapsed := time.Since(start)
	for _, v := range verdicts {
		if v != check.Yes {
			return elapsed, false
		}
	}
	return elapsed, true
}

// B13Model is the model of the B13 fast-tier workload.
func B13Model() spec.Model { return spec.Queue() }

// B13History regenerates the B13 heavy-tail workload: the dense 4-process
// 96-operation queue history of seed 2 — the pathological seed the B11 shard
// lists deliberately omit, whose one-shot Wing–Gong search explores
// thousands of configurations. The log-linear fast tier (internal/check/
// loglin) decides it in a few dozen peel steps, which is exactly the gap the
// B13 benchmark and perfgate gate measure. A committed copy is pinned at
// internal/check/testdata/b11_queue_seed2.json (fasttier_tail_test.go
// asserts byte-for-byte agreement with this generator).
func B13History() history.History {
	return trace.RandomLinearizable(spec.Queue(), 2, 4, 96)
}

// B13Result carries the B13 gate numbers: the exact search's explored
// configurations vs the tier's macro peel steps on the same history, and
// verdict agreement.
type B13Result struct {
	Explored int  // Wing–Gong explored configurations
	Steps    int  // fast-tier macro peel decisions
	Agree    bool // tier decided, and its verdict equals the search's
}

// RunFastTier runs both deciders on the B13 workload. Shared by the B13
// benchmark legs and the cmd/perfgate gate so they cannot drift onto
// different workloads.
func RunFastTier() B13Result {
	m := B13Model()
	h := B13History()
	r := check.Linearizable(m, h)
	ft := check.FastTier(m)
	v := ft.Check(h)
	d := loglin.Decide(m, h)
	decided := d.V == loglin.Yes || d.V == loglin.No
	return B13Result{
		Explored: r.Explored,
		Steps:    d.Steps,
		Agree:    decided && (v == check.Yes) == r.Ok,
	}
}
