package monitorserver_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/monitorclient"
	"repro/internal/monitorserver"
	"repro/internal/spec"
	"repro/internal/trace"
)

// scheduleFree is the part of an object's bye stats that holds on any
// schedule. How the dispatcher groups batches into absorb rounds depends on
// timing, pipelined or not, so Appends, SegChecks, SegYes, SearchRebuilds,
// SegExplored, MaxSegment and StickyNo legitimately differ between two runs
// of one stream. Events never does. On an un-refuted stream neither do the
// retention outcomes: cuts commit at the same quiescent points however the
// events were grouped. After a No the window freezes wherever the refuting
// round ended, so those are compared on clean streams only.
type scheduleFree struct {
	Events                                    int
	Compactions, GCRuns                       int
	DiscardedEvents, RetainedEvents, Frontier int
}

func scheduleFreeStats(st check.IncStats, clean bool) scheduleFree {
	if !clean {
		return scheduleFree{Events: st.Events}
	}
	return scheduleFree{st.Events, st.Compactions, st.GCRuns, st.DiscardedEvents, st.RetainedEvents, st.FrontierStates}
}

// TestPipelinedDispatcherEquivalence: the same multi-object client load
// streamed once to a sequential server and once to a double-buffered one
// (Options.Pipeline) yields the same verdicts and applied-event counts on
// clean and mutated streams, and on clean streams the same retention
// outcomes (scheduleFree).
func TestPipelinedDispatcherEquivalence(t *testing.T) {
	quiet := func(string, ...any) {}
	cfg := check.Config{
		Retain:    true,
		Retention: check.RetentionPolicy{KeepEvents: 128, GCBatch: 4},
	}
	models := []string{"queue", "stack", "set", "counter"}
	const procs, opsEach, batchSize = 3, 400, 25

	type outcome struct {
		verdict check.Verdict
		stats   check.IncStats
	}
	for _, mutate := range []bool{false, true} {
		name := "clean"
		if mutate {
			name = "mutated"
		}
		t.Run(name, func(t *testing.T) {
			run := func(pipelined bool) map[string]outcome {
				srv := startServer(t, monitorserver.Options{
					Workers: 2, GaugeEvery: -1, Pipeline: pipelined, Logf: quiet,
				})
				out := make(map[string]outcome, len(models))
				var mu sync.Mutex
				var wg sync.WaitGroup
				for _, mn := range models {
					wg.Add(1)
					go func(mn string) {
						defer wg.Done()
						m, _ := spec.ByName(mn)
						h := genQuiescing(m, 77, procs, opsEach)
						if mutate {
							h = trace.Mutate(h, 13)
						}
						sess, err := monitorclient.Dial(srv.Addr().String(), "t",
							fmt.Sprintf("%s-%s-pipe-%v", mn, name, pipelined), mn,
							monitorclient.WithConfig(cfg))
						if err != nil {
							t.Errorf("%s: dial: %v", mn, err)
							return
						}
						for _, b := range batches(h, batchSize) {
							if err := sess.Send(b); err != nil {
								t.Errorf("%s: send: %v", mn, err)
								return
							}
						}
						v, err := sess.Close()
						if err != nil {
							t.Errorf("%s: close: %v", mn, err)
							return
						}
						st := sess.Stats()
						if st == nil {
							t.Errorf("%s: no bye stats frame", mn)
							return
						}
						mu.Lock()
						out[mn] = outcome{verdict: v, stats: st.Check}
						mu.Unlock()
					}(mn)
				}
				wg.Wait()
				return out
			}
			off := run(false)
			on := run(true)
			if t.Failed() {
				return
			}
			rounds := 0
			for _, mn := range models {
				if on[mn].verdict != off[mn].verdict {
					t.Errorf("%s: pipelined verdict %v, sequential %v", mn, on[mn].verdict, off[mn].verdict)
				}
				if got, want := scheduleFreeStats(on[mn].stats, !mutate), scheduleFreeStats(off[mn].stats, !mutate); got != want {
					t.Errorf("%s: stats diverge\npipelined:  %+v\nsequential: %+v", mn, got, want)
				}
				if off[mn].stats.PipelineRounds != 0 {
					t.Errorf("%s: sequential dispatcher reported pipeline rounds: %+v", mn, off[mn].stats)
				}
				if on[mn].stats.PipelineRounds > rounds {
					rounds = on[mn].stats.PipelineRounds
				}
			}
			if rounds == 0 {
				t.Error("pipelined dispatcher never overlapped a round")
			}
		})
	}
}

// TestPipelinedDurableRestart is the checkpoint/restore-mid-pipeline test:
// a double-buffered server is force-restarted mid-stream — once with the
// drain checkpoint failing under injected ENOSPC — and the restored
// incarnation (also pipelined) must observe a committed round boundary:
// the streamed verdict matches an uninterrupted in-process monitor and every
// event is applied exactly once, so no half-absorbed absorb round was ever
// checkpointed and no acked batch was lost. Clean and mutated streams.
func TestPipelinedDurableRestart(t *testing.T) {
	for _, mutate := range []bool{false, true} {
		name := "clean"
		if mutate {
			name = "mutated"
		}
		t.Run(name, func(t *testing.T) {
			m, _ := spec.ByName("queue")
			h := genQuiescing(m, 41, 3, 600)
			if mutate {
				h = trace.Mutate(h, 19)
			}
			cfg := check.Config{
				Retain:    true,
				Retention: check.RetentionPolicy{KeepEvents: 128, GCBatch: 4},
			}
			bs := batches(h, 30)

			ref := check.NewIncremental(m, check.WithConfig(cfg))
			want := check.Yes
			for _, b := range bs {
				want = ref.Append(b)
			}

			dh := newDurableHarness(t, 3, func(o *monitorserver.Options) { o.Pipeline = true })
			sess, err := monitorclient.Dial(dh.addr, "t", "obj", "queue",
				monitorclient.WithConfig(cfg),
				monitorclient.WithReconnect(40, 25*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			restartAt := map[int]bool{
				len(bs) / 4:     false,
				len(bs) / 2:     true, // fail the drain checkpoint: durable lags acked
				3 * len(bs) / 4: false,
			}
			for i, b := range bs {
				if crashCkpt, ok := restartAt[i]; ok {
					if crashCkpt {
						dh.ffs.FailN(ckpt.OpSync, 1, ckpt.ErrNoSpace)
					}
					dh.restart()
					dh.ffs.Arm(nil)
				}
				if err := sess.Send(b); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			got, err := sess.Close()
			if err != nil {
				t.Fatalf("close: %v", err)
			}
			if got != want {
				t.Fatalf("restarted pipelined verdict %v, uninterrupted reference %v", got, want)
			}
			if st := sess.Stats(); st == nil || st.Check.Events != len(h) {
				t.Fatalf("exactly-once violated: server applied %v events, stream has %d",
					sess.Stats(), len(h))
			}
		})
	}
}
