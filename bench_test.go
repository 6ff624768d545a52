// Benchmarks B1–B9 of DESIGN.md §3: one benchmark family per complexity or
// overhead claim the paper makes in prose, plus B8 for the incremental
// verification pipeline and B9 for the bounded-memory retention mode.
// Absolute numbers depend on the host; the shapes (linear/quadratic growth
// in n, constant producer cost, fast-monitor and incremental-pipeline
// speedups, flat retained window) are what EXPERIMENTS.md records.
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/conslist"
	"repro/internal/core"
	"repro/internal/genlin"
	"repro/internal/history"
	"repro/internal/impls"
	"repro/internal/snapshot"
	"repro/internal/soak"
	"repro/internal/spec"
	"repro/internal/trace"
)

// segment is the history-window size used to keep whole-history verification
// benchmarks in steady state: structures are rebuilt every segment ops.
const segment = 64

// ---------------------------------------------------------------------------
// B6: snapshot implementations
// ---------------------------------------------------------------------------

func benchSnapshot(b *testing.B, mk func(n int) snapshot.Snapshot[int64], n int) {
	s := mk(n)
	var wg sync.WaitGroup
	per := b.N/n + 1
	b.ResetTimer()
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i%4 == 0 {
					s.Scan(p)
				} else {
					s.Update(p, int64(i))
				}
			}
		}(p)
	}
	wg.Wait()
}

func BenchmarkSnapshot(b *testing.B) {
	impls := map[string]func(n int) snapshot.Snapshot[int64]{
		"afek":  func(n int) snapshot.Snapshot[int64] { return snapshot.NewAfek[int64](n) },
		"cas":   func(n int) snapshot.Snapshot[int64] { return snapshot.NewCAS[int64](n) },
		"mutex": func(n int) snapshot.Snapshot[int64] { return snapshot.NewMutex[int64](n) },
	}
	for name, mk := range impls {
		for _, n := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				benchSnapshot(b, mk, n)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// B1: DRV (A*) overhead vs the raw implementation
// ---------------------------------------------------------------------------

func BenchmarkDRVOverhead(b *testing.B) {
	b.Run("raw-counter", func(b *testing.B) {
		c := impls.NewAtomicCounter()
		var uniq trace.UniqSource
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Apply(0, spec.Operation{Method: spec.MethodInc, Uniq: uniq.Next()})
		}
	})
	for _, n := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("drv-counter/n=%d", n), func(b *testing.B) {
			drv := core.NewDRV(impls.NewAtomicCounter(), n)
			var uniq trace.UniqSource
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drv.Apply(0, spec.Operation{Method: spec.MethodInc, Uniq: uniq.Next()})
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B2: verifier iteration cost vs n (Claim 8.1)
// ---------------------------------------------------------------------------

func BenchmarkVerifierIteration(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("counter/n=%d", n), func(b *testing.B) {
			var v *core.Verifier
			var uniq trace.UniqSource
			var gen *trace.OpGen
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%segment == 0 {
					v = core.NewVerifier(core.NewDRV(impls.NewAtomicCounter(), n),
						genlin.Linearizability(spec.Counter()))
					gen = trace.NewOpGen("counter", int64(i), &uniq)
				}
				if _, _, rep := v.Do(0, gen.Next()); rep != nil {
					b.Fatal("false error")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B3: self-enforced overhead per object
// ---------------------------------------------------------------------------

func BenchmarkSelfEnforced(b *testing.B) {
	models := []spec.Model{spec.Queue(), spec.Stack(), spec.Counter(), spec.Register(0)}
	for _, m := range models {
		b.Run("raw/"+m.Name(), func(b *testing.B) {
			var impl core.Implementation
			var uniq trace.UniqSource
			var gen *trace.OpGen
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%segment == 0 {
					impl = impls.ForModel(m)
					gen = trace.NewOpGen(m.Name(), int64(i), &uniq)
				}
				impl.Apply(0, gen.Next())
			}
		})
		b.Run("enforced/"+m.Name(), func(b *testing.B) {
			var e *core.Enforced
			var uniq trace.UniqSource
			var gen *trace.OpGen
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%segment == 0 {
					e = core.NewEnforced(impls.ForModel(m), 2, genlin.Linearizability(m), nil)
					gen = trace.NewOpGen(m.Name(), int64(i), &uniq)
				}
				if _, rep := e.Apply(0, gen.Next()); rep != nil {
					b.Fatal("false error")
				}
			}
		})
	}
}

// BenchmarkSelfEnforcedParallel measures contended throughput: p goroutines
// driving a self-enforced counter.
func BenchmarkSelfEnforcedParallel(b *testing.B) {
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("counter/p=%d", procs), func(b *testing.B) {
			e := core.NewEnforced(impls.NewAtomicCounter(), procs, genlin.Linearizability(spec.Counter()), nil)
			var uniq trace.UniqSource
			per := b.N/procs + 1
			if per > 4*segment {
				per = 4 * segment // keep whole-history checking in steady state
			}
			b.ResetTimer()
			rounds := b.N/(per*procs) + 1
			for r := 0; r < rounds; r++ {
				e = core.NewEnforced(impls.NewAtomicCounter(), procs, genlin.Linearizability(spec.Counter()), nil)
				var wg sync.WaitGroup
				for p := 0; p < procs; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						gen := trace.NewOpGen("counter", int64(p), &uniq)
						for i := 0; i < per; i++ {
							e.Apply(p, gen.Next())
						}
					}(p)
				}
				wg.Wait()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B4: decoupled producer cost (constant in history length)
// ---------------------------------------------------------------------------

func BenchmarkDecoupledProducer(b *testing.B) {
	d := core.NewDecoupled(impls.NewAtomicCounter(), 2, 1,
		genlin.Linearizability(spec.Counter()), func(core.Report) {})
	defer d.Close()
	var uniq trace.UniqSource
	gen := trace.NewOpGen("counter", 1, &uniq)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(0, gen.Next())
	}
}

// ---------------------------------------------------------------------------
// B5: §9.1 bounded representation — cons lists vs whole-set copies
// ---------------------------------------------------------------------------

func BenchmarkConsListVsCopy(b *testing.B) {
	b.Run("conslist-announce", func(b *testing.B) {
		b.ReportAllocs()
		var head *conslist.Node[int]
		for i := 0; i < b.N; i++ {
			head = conslist.Push(head, i)
			if head.Depth() > 1024 {
				head = nil
			}
		}
	})
	b.Run("copied-set-announce", func(b *testing.B) {
		b.ReportAllocs()
		var set []int
		for i := 0; i < b.N; i++ {
			next := make([]int, len(set)+1) // a fresh copy per announce, as in the naive Figure 7 encoding
			copy(next, set)
			next[len(set)] = i
			set = next
			if len(set) > 1024 {
				set = nil
			}
		}
	})
}

// ---------------------------------------------------------------------------
// B7: checker cost — complete search vs the ForModel composition (log-linear
// tier + complete search), and X(τ) construction
// ---------------------------------------------------------------------------

func BenchmarkChecker(b *testing.B) {
	sizes := []int{16, 64, 256}
	for _, size := range sizes {
		h := trace.RandomLinearizable(spec.Queue(), 7, 3, size)
		b.Run(fmt.Sprintf("wg/queue/ops=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !check.IsLinearizable(spec.Queue(), h) {
					b.Fatal("generated history must be linearizable")
				}
			}
		})
		mon := check.ForModel(spec.Queue())
		b.Run(fmt.Sprintf("hybrid/queue/ops=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mon.Check(h) != check.Yes {
					b.Fatal("generated history must be linearizable")
				}
			}
		})
	}
	hc := trace.RandomLinearizable(spec.Counter(), 9, 3, 256)
	b.Run("wg/counter/ops=256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			check.IsLinearizable(spec.Counter(), hc)
		}
	})

	// Violation path: a phantom dequeue forces the complete search to
	// exhaust. The log-linear tier abstains on this history (its pending
	// removals trigger loglin.TriggerPendingRemove), so ForModel pays the
	// same exhaustive search plus the tier's scan.
	bad := trace.RandomLinearizable(spec.Queue(), 11, 3, 128)
	bad = append(bad, history.Event{Kind: history.Invoke, Proc: 0, ID: 9999,
		Op: spec.Operation{Method: spec.MethodDeq, Uniq: 9999}})
	bad = append(bad, history.Event{Kind: history.Return, Proc: 0, ID: 9999,
		Op: spec.Operation{Method: spec.MethodDeq, Uniq: 9999}, Res: spec.ValueResp(777777)})
	b.Run("wg/queue-violation/ops=128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if check.IsLinearizable(spec.Queue(), bad) {
				b.Fatal("violation accepted")
			}
		}
	})
	b.Run("hybrid/queue-violation/ops=128", func(b *testing.B) {
		b.ReportAllocs()
		mon := check.ForModel(spec.Queue())
		for i := 0; i < b.N; i++ {
			if mon.Check(bad) != check.No {
				b.Fatal("violation accepted")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// B10: checker allocation pressure — the zero-allocation search core
// ---------------------------------------------------------------------------

// BenchmarkCheckerAllocs is the B10 family: the complete Wing–Gong search on
// dense (high-concurrency) queue and stack workloads, with allocs/op as the
// headline number. The interned-memo search (internal/stateset) plus the
// persistent window states (internal/spec seqstate.go) replace the
// string-keyed memo and copy-per-step states; cmd/perfgate gates allocs/op
// on exactly this workload so the steady-state path cannot silently regrow
// per-node allocation. EXPERIMENTS.md records pre/post numbers.
func BenchmarkCheckerAllocs(b *testing.B) {
	for _, w := range soak.B10Workloads() {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !w.Check() {
					b.Fatal("generated history must be linearizable")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B11: parallel wait-free segment search — worker-pool Wing–Gong across
// verification shards and frontier states
// ---------------------------------------------------------------------------

// BenchmarkParallelCheck is the B11 family; run with -cpu 1,2,4 and compare
// wall-clock across the legs (the worker width tracks GOMAXPROCS, so the
// -cpu matrix IS the scaling experiment; EXPERIMENTS.md records the ratios,
// cmd/perfgate gates the 4-vs-1 ratio on hosts with >=4 CPUs).
//
//   - shards/*: the shard axis — 16 independent dense 4-proc histories per
//     model verified through one check.Shards pool (internal/soak B11Specs).
//   - frontier/queue: the frontier axis — the multi-state-frontier stream of
//     trace.FrontierRounds, where each reveal burst forces five expensive
//     independent refutations that check.Config.Parallelism overlaps.
func BenchmarkParallelCheck(b *testing.B) {
	for _, s := range soak.B11Specs() {
		hs := s.Histories()
		b.Run(fmt.Sprintf("shards/%s/ops=%d", s.Model.Name(), s.Ops), func(b *testing.B) {
			workers := runtime.GOMAXPROCS(0)
			for i := 0; i < b.N; i++ {
				if _, ok := soak.RunShardCheck(s, hs, workers); !ok {
					b.Fatal("shard refuted a linearizable history")
				}
			}
		})
	}
	bursts := trace.FrontierRounds(8, false)
	b.Run("frontier/queue", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			m := check.NewIncremental(spec.Queue(),
				check.WithConfig(check.Config{
					Retain:      true,
					Retention:   check.RetentionPolicy{GCBatch: 32},
					Parallelism: workers,
				}))
			for k, bu := range bursts {
				if m.Append(bu) != check.Yes {
					b.Fatalf("burst %d refuted a correct stream", k)
				}
			}
		}
	})
}

func BenchmarkXOfTau(b *testing.B) {
	for _, ops := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			drv := core.NewDRV(impls.NewAtomicCounter(), 4)
			var uniq trace.UniqSource
			tuples := make([]core.Tuple, 0, ops)
			for i := 0; i < ops; i++ {
				op := spec.Operation{Method: spec.MethodInc, Uniq: uniq.Next()}
				y, view := drv.Apply(i%4, op)
				tuples = append(tuples, core.Tuple{Proc: i % 4, Op: op, Res: y, View: view})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildHistory(tuples, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B8: decoupled verification — paper-literal full re-check vs the
// incremental sharded pipeline, monitoring a stream of published operations
// ---------------------------------------------------------------------------

// BenchmarkDecoupledVerify measures the total verification work to monitor a
// stream of `ops` published operations, one verification pass per
// publication (steady-state online monitoring):
//
//   - full: the paper's Figure 12 loop body (soak.FullRecheck) — flatten,
//     BuildHistory, decide membership of the whole prefix, every time;
//   - incremental: the IncVerifier pipeline — delta assembly plus a segment
//     check from the committed frontier.
//
// One benchmark iteration processes the whole stream, so ns/op is the cost
// of the full window; EXPERIMENTS.md records the ratio.
func BenchmarkDecoupledVerify(b *testing.B) {
	const procs = 4
	for _, m := range []spec.Model{spec.Counter(), spec.Queue()} {
		for _, ops := range []int{256, 1024, 2048} {
			tuples := soak.Publish(m, procs, ops)
			obj := genlin.Linearizability(m)
			b.Run(fmt.Sprintf("full/%s/ops=%d", m.Name(), ops), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := soak.FullRecheck(obj, tuples, procs); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("incremental/%s/ops=%d", m.Name(), ops), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					iv := core.NewIncVerifier(procs, obj)
					for k := 0; k < ops; k++ {
						iv.IngestTuples(tuples[k : k+1])
						if iv.Verdict() != check.Yes {
							b.Fatal("correct stream refuted")
						}
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// B9: bounded-memory retention soak — memory stays O(window) on a long
// stream, and the verdicts stay identical to the unbounded monitor
// ---------------------------------------------------------------------------

// soakPolicy is the retention policy the B9 numbers are recorded under.
var soakPolicy = check.RetentionPolicy{GCBatch: 64}

// BenchmarkRetentionSoak streams published operations through the
// incremental pipeline with and without retention. ns/op covers the whole
// stream; the custom metrics are the point: retained-events-max is the
// monitoring window's high-water mark, which stays flat under retention and
// equals the stream length without it. The retained arm regenerates its
// stream every iteration (outside the timer): retention truncates the
// announce cons-lists embedded in the tuples' views, so a stream must never
// be replayed or shared with the unbounded arm.
func BenchmarkRetentionSoak(b *testing.B) {
	const procs = 4
	m := spec.Counter()
	obj := genlin.Linearizability(m)
	for _, ops := range []int{4096, 16384} {
		run := func(b *testing.B, fresh bool, opts ...core.IncVerifierOption) {
			maxRetained := 0
			tuples := soak.Publish(m, procs, ops)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fresh && i > 0 {
					b.StopTimer()
					tuples = soak.Publish(m, procs, ops)
					b.StartTimer()
				}
				iv := core.NewIncVerifier(procs, obj, opts...)
				maxRetained = 0
				for k := 0; k < ops; k++ {
					iv.IngestTuples(tuples[k : k+1])
					if iv.Verdict() != check.Yes {
						b.Fatal("correct stream refuted")
					}
					if r := iv.Stats().Check.RetainedEvents; r > maxRetained {
						maxRetained = r
					}
				}
			}
			b.ReportMetric(float64(maxRetained), "retained-events-max")
		}
		b.Run(fmt.Sprintf("retained/ops=%d", ops), func(b *testing.B) {
			run(b, true, core.WithVerifierConfig(check.Config{Retain: true, Retention: soakPolicy}))
		})
		b.Run(fmt.Sprintf("unbounded/ops=%d", ops), func(b *testing.B) {
			run(b, false)
		})
	}
}

// TestSoakRetentionB9 is the B9 acceptance check: on a >=100k-op stream the
// retained monitor's window is bounded by the policy (not the history
// length) while its verdict matches the unbounded monitor's at every
// publication. Reduced under -short; the CI perf gate runs the same body
// (internal/soak) at reduced scale via cmd/perfgate.
func TestSoakRetentionB9(t *testing.T) {
	ops := 100_000
	if testing.Short() {
		ops = 20_000
	}
	r := soak.Run(spec.Counter(), 4, ops, soakPolicy)
	if r.DivergedAt >= 0 {
		t.Fatalf("verdicts diverged from the unbounded oracle at op %d", r.DivergedAt)
	}
	if !r.Yes {
		t.Fatal("correct stream refuted")
	}
	if r.MaxRetained > r.Bound {
		t.Fatalf("retained window high-water %d events exceeds bound %d (stream %d events)",
			r.MaxRetained, r.Bound, r.Events)
	}
	if r.Discarded+r.Retained != r.Events {
		t.Fatalf("event accounting broken: discarded %d + retained %d != %d",
			r.Discarded, r.Retained, r.Events)
	}
}

// ---------------------------------------------------------------------------
// B12: commit-point-order cuts — memory stays O(window) even on a stream
// that never globally quiesces, where quiescent-cut retention (B9's
// mechanism) provably never finds a cut and degrades to unbounded growth
// ---------------------------------------------------------------------------

// BenchmarkCommitCutSoak streams the never-quiescent workload through the
// bounded monitor with commit-point cuts and through the degradation
// control (same policy, quiescent cuts only). ns/op covers the whole
// stream; retained-events-max is the point: flat under commit cuts, equal
// to the stream length without them.
func BenchmarkCommitCutSoak(b *testing.B) {
	const ops = 20000
	for _, m := range soak.B12Models() {
		for _, commitCuts := range []bool{true, false} {
			name := fmt.Sprintf("%s/commitcuts=%v", m.Name(), commitCuts)
			b.Run(name, func(b *testing.B) {
				maxRetained := 0
				for i := 0; i < b.N; i++ {
					r := soak.RunNeverQuiescent(m, ops, 1, soakPolicy, commitCuts)
					if !r.Yes || r.DivergedAt >= 0 {
						b.Fatalf("soak failed: %+v", r)
					}
					maxRetained = r.MaxRetained
				}
				b.ReportMetric(float64(maxRetained), "retained-events-max")
			})
		}
	}
}

// TestSoakNeverQuiescentB12 is the B12 acceptance check: on a >=100k-op
// stream with no globally quiescent point, the commit-point-cut monitor's
// window is bounded by the policy while its verdicts match the unbounded
// monitor's at every burst, for every strongly-ordered model; the
// quiescent-cut control on the same stream retains everything. Reduced
// under -short; the CI perf gate runs the same body (internal/soak) at
// reduced scale via cmd/perfgate.
func TestSoakNeverQuiescentB12(t *testing.T) {
	ops := 100_000
	if testing.Short() {
		ops = 20_000
	}
	for _, m := range soak.B12Models() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			r := soak.RunNeverQuiescent(m, ops, 1, soakPolicy, true)
			if r.DivergedAt >= 0 {
				t.Fatalf("verdicts diverged from the unbounded oracle at burst %d", r.DivergedAt)
			}
			if !r.Yes {
				t.Fatal("correct stream refuted")
			}
			if r.MaxRetained > r.Bound {
				t.Fatalf("retained window high-water %d events exceeds bound %d (stream %d events)",
					r.MaxRetained, r.Bound, r.Events)
			}
			if r.CommitCuts == 0 || r.CarriedOps == 0 {
				t.Fatalf("commit cuts did not engage: %+v", r)
			}
			if r.Discarded+r.Retained != r.Events {
				t.Fatalf("event accounting broken: discarded %d + retained %d != %d",
					r.Discarded, r.Retained, r.Events)
			}
			// The degradation control at reduced scale: no quiescent point,
			// no GC, window == stream.
			c := soak.RunNeverQuiescent(m, ops/10, 1, soakPolicy, false)
			if c.Discarded != 0 || c.MaxRetained != c.Events {
				t.Fatalf("quiescent-only control unexpectedly collected: %+v", c)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B13: log-linear fast tier vs the exact search on the heavy-tail seed —
// the decrease-and-conquer tier decides in O(n log n) peel steps what the
// Wing–Gong search pays thousands of explored configurations for
// ---------------------------------------------------------------------------

// BenchmarkFastTier is the B13 family, on the shared internal/soak B13
// workload (the pathological queue seed the B11 shard lists omit):
//
//   - tier/*: the log-linear decision tier alone (check.FastTier);
//   - wg/*: the complete search on the same history;
//   - incremental-retained/*: the retained monitor ingesting the history in
//     one append, answering from the tier (fasttier_tail_test.go asserts the
//     search never runs on this path).
//
// cmd/perfgate gates the explored-steps ratio of the two deciders (counter-
// based, host-independent) rather than this wall-clock ratio.
func BenchmarkFastTier(b *testing.B) {
	m := soak.B13Model()
	h := soak.B13History()
	b.Run("tier/queue/seed2", func(b *testing.B) {
		b.ReportAllocs()
		ft := check.FastTier(m)
		for i := 0; i < b.N; i++ {
			if ft.Check(h) != check.Yes {
				b.Fatal("tier failed to accept the B13 seed")
			}
		}
	})
	b.Run("wg/queue/seed2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !check.IsLinearizable(m, h) {
				b.Fatal("B13 seed refuted")
			}
		}
	})
	b.Run("incremental-retained/queue/seed2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inc := check.NewIncremental(m, check.WithConfig(check.Config{Retain: true}))
			if inc.Append(h) != check.Yes {
				b.Fatal("B13 seed refuted")
			}
		}
	})
}

// TestSoakFastTierB13 is the B13 acceptance check: the tier decides the
// pathological seed, agrees with the exact search, and beats it by at least
// the gated explored-steps ratio. The CI perf gate runs the same body
// (internal/soak RunFastTier) via cmd/perfgate.
func TestSoakFastTierB13(t *testing.T) {
	r := soak.RunFastTier()
	if !r.Agree {
		t.Fatalf("fast tier failed to decide the B13 seed in agreement with the search: %+v", r)
	}
	if r.Steps <= 0 || float64(r.Explored)/float64(r.Steps) < 50 {
		t.Fatalf("explored-steps ratio below the 50x floor: %+v", r)
	}
}

// ---------------------------------------------------------------------------
// B14: durable checkpoints — the serialised envelope stays O(retained
// window) on an endless never-quiescent stream, and a monitor restored from
// a mid-soak checkpoint tracks the uninterrupted primary verdict-for-verdict
// to the end of the stream
// ---------------------------------------------------------------------------

// TestSoakCheckpointRestoreB14 is the B14 acceptance check. The CI perf
// gate runs the same body (internal/soak RunCheckpointSoak) at reduced
// scale via cmd/perfgate.
func TestSoakCheckpointRestoreB14(t *testing.T) {
	ops := 100_000
	if testing.Short() {
		ops = 20_000
	}
	r := soak.RunCheckpointSoak(spec.Queue(), ops, 1, soakPolicy, true)
	if r.Err != "" {
		t.Fatalf("checkpoint/restore failed mid-soak: %s", r.Err)
	}
	if r.DivergedAt >= 0 {
		t.Fatalf("restored clone diverged from the uninterrupted primary at burst %d", r.DivergedAt)
	}
	if !r.Yes {
		t.Fatal("correct stream refuted")
	}
	if r.Checkpoints == 0 || r.RestoredAt < 0 {
		t.Fatalf("soak exported no checkpoint or never restored: %+v", r)
	}
	if r.MaxBytes > r.Bound {
		t.Fatalf("largest checkpoint %d bytes exceeds the %d O(window) bound (stream %d events)",
			r.MaxBytes, r.Bound, r.Events)
	}
}

// BenchmarkFirstViolation measures the witness-localisation cost.
func BenchmarkFirstViolation(b *testing.B) {
	h := trace.RandomLinearizable(spec.Queue(), 3, 3, 64)
	bad := trace.Mutate(h, 5)
	if check.IsLinearizable(spec.Queue(), bad) {
		// Find a mutation that actually breaks it.
		for s := int64(6); check.IsLinearizable(spec.Queue(), bad); s++ {
			bad = trace.Mutate(h, s)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if check.FirstViolation(spec.Queue(), bad) < 0 {
			b.Fatal("expected violation")
		}
	}
}

// sanity for the facade: the benchmarks file lives in package repro, so make
// sure the public API compiles against it.
var _ = func() bool {
	var _ Implementation = impls.NewMSQueue()
	var _ History = history.History{}
	return true
}()

// BenchmarkEnforcedSnapshotChoice is the substrate ablation: the self-
// enforced counter over the three snapshot implementations (DESIGN.md B6:
// read/write-only wait-free vs CAS vs lock-based).
func BenchmarkEnforcedSnapshotChoice(b *testing.B) {
	kinds := map[string]func() snapshot.Snapshot[*conslist.Node[core.Ann]]{
		"afek": func() snapshot.Snapshot[*conslist.Node[core.Ann]] {
			return snapshot.NewAfek[*conslist.Node[core.Ann]](2)
		},
		"cas": func() snapshot.Snapshot[*conslist.Node[core.Ann]] {
			return snapshot.NewCAS[*conslist.Node[core.Ann]](2)
		},
		"mutex": func() snapshot.Snapshot[*conslist.Node[core.Ann]] {
			return snapshot.NewMutex[*conslist.Node[core.Ann]](2)
		},
	}
	for name, mk := range kinds {
		b.Run(name, func(b *testing.B) {
			var e *core.Enforced
			var uniq trace.UniqSource
			var gen *trace.OpGen
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%segment == 0 {
					e = core.NewEnforced(impls.NewAtomicCounter(), 2,
						genlin.Linearizability(spec.Counter()), []core.Option{core.WithSnapshot(mk())})
					gen = trace.NewOpGen("counter", int64(i), &uniq)
				}
				if _, rep := e.Apply(0, gen.Next()); rep != nil {
					b.Fatal("false error")
				}
			}
		})
	}
}
