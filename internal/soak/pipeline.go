package soak

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/genlin"
	"repro/internal/history"
	"repro/internal/monitorclient"
	"repro/internal/monitorserver"
	"repro/internal/spec"
	"repro/internal/trace"
)

// B15Burst is the ingest granularity of the B15 pipelined soak: published
// tuples per IngestTuples pass on the decoupled arm, events per wire batch on
// the server arm. Large enough that each pass carries real assembly work to
// overlap with the previous pass's segment check.
const B15Burst = 32

// B15Result carries the B15 pipelined-ingest acceptance numbers: the same
// workload driven with the ingest pipeline off and on, on both tiers that
// implement it — the in-process decoupled verifier (core.WithVerifierPipeline)
// and the linmond dispatcher (monitorserver.Options.Pipeline).
type B15Result struct {
	Events   int   // events checked per arm configuration (both arms)
	DecOffNs int64 // decoupled heavy-tail stream, sequential driving
	DecOnNs  int64 // decoupled heavy-tail stream, pipelined driving
	SrvOffNs int64 // linmond loopback firehose, sequential dispatcher
	SrvOnNs  int64 // linmond loopback firehose, double-buffered dispatcher
	Ratio    float64
	Rounds   int    // pipeline rounds observed on the pipelined arms
	Stalls   int    // forced joins observed on the pipelined arms
	Err      string // first driving failure; "" if none
	Match    bool   // pipelined runs agree with sequential (see RunPipelinedSoak)
}

// Ok reports whether the soak met the B15 correctness criteria: both arms
// completed, every verdict agreed between sequential and pipelined driving,
// and the pipelined arms actually overlapped (Rounds > 0). The
// wall-clock Ratio is deliberately not part of Ok — it is host-dependent and
// gated separately by cmd/perfgate on hosts with at least 2 CPUs.
func (r B15Result) Ok() bool {
	return r.Err == "" && r.Match && r.Rounds > 0
}

// RunPipelinedSoak is the shared body of the B15 acceptance checks
// (TestSoakPipelinedB15, BenchmarkPipelinedSoak, the cmd/perfgate B15 gate).
//
// The decoupled arm streams a dense published-operation queue workload
// (Publish, the B8 stream shape) through core.IncVerifier in B15Burst-tuple
// passes, once sequentially and once pipelined: with the pipeline on, the
// assembler stages pass N+1's X(τ) delta while the monitor checks pass N's
// on the hand-off goroutine. The server arm starts one in-process linmond
// per configuration and firehoses `clients` concurrent sessions (one dense
// 4-process queue history each, batched at B15Burst events) through its
// dispatcher, sequential vs double-buffered. The decoupled arm's verdicts and
// final stats must be bit-identical between its off and on runs (modulo the
// PipelineRounds/PipelineStalls/PipelineWaitNs counters, which only the
// pipelined run accumulates). The server arm's must agree on verdicts and
// applied events only: linmond groups batches into rounds by timing, so its
// other counters differ run to run (DESIGN.md §2i).
func RunPipelinedSoak(ops, clients int) B15Result {
	res := B15Result{Match: true}
	fail := func(err error) {
		if res.Err == "" {
			res.Err = err.Error()
		}
	}

	// --- decoupled heavy-tail arm ---------------------------------------
	m := spec.Queue()
	obj := genlin.Linearizability(m)
	const procs = 4
	tuples := Publish(m, procs, ops)
	res.Events += 2 * 2 * ops // two runs of a 2*ops-event stream
	runDec := func(pipelined bool) (int64, check.Verdict, core.IncVerifyStats) {
		var opts []core.IncVerifierOption
		if pipelined {
			opts = append(opts, core.WithVerifierPipeline(true))
		}
		iv := core.NewIncVerifier(procs, obj, opts...)
		defer iv.ClosePipeline()
		start := time.Now()
		for k := 0; k < len(tuples); k += B15Burst {
			end := min(k+B15Burst, len(tuples))
			iv.IngestTuples(tuples[k:end])
		}
		iv.Sync()
		elapsed := time.Since(start).Nanoseconds()
		return elapsed, iv.Verdict(), iv.Stats()
	}
	offNs, offV, offSt := runDec(false)
	onNs, onV, onSt := runDec(true)
	res.DecOffNs, res.DecOnNs = offNs, onNs
	res.Rounds += onSt.Check.PipelineRounds
	res.Stalls += onSt.Check.PipelineStalls
	if offV != onV {
		res.Match = false
	}
	// Mask the driver-side hand-off counters; everything else must agree.
	onSt.Check.PipelineRounds, onSt.Check.PipelineStalls, onSt.PipelineWaitNs = 0, 0, 0
	if offSt != onSt {
		res.Match = false
	}

	// --- linmond loopback firehose arm -----------------------------------
	histories := make([]history.History, clients)
	for c := range histories {
		histories[c] = trace.RandomLinearizable(m, int64(c+1), procs, 256)
	}
	runSrv := func(pipelined bool) (int64, []check.Verdict, []int) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
			return 0, nil, nil
		}
		srv := monitorserver.Serve(ln, monitorserver.Options{
			Workers:    2,
			GaugeEvery: -1,
			Pipeline:   pipelined,
			Logf:       func(string, ...any) {},
		})
		defer srv.Close()
		verdicts := make([]check.Verdict, clients)
		events := make([]int, clients)
		rounds := make([]int, clients)
		stalls := make([]int, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sess, err := monitorclient.Dial(ln.Addr().String(), "b15",
					fmt.Sprintf("obj-%d-pipe-%v", c, pipelined), m.Name())
				if err != nil {
					fail(err)
					return
				}
				h := histories[c]
				for k := 0; k < len(h); k += B15Burst {
					end := min(k+B15Burst, len(h))
					if err := sess.Send(h[k:end]); err != nil {
						fail(err)
						return
					}
				}
				v, err := sess.Close()
				if err != nil {
					fail(err)
					return
				}
				verdicts[c] = v
				if st := sess.Stats(); st != nil {
					events[c] = st.Check.Events
					rounds[c] = st.Check.PipelineRounds
					stalls[c] = st.Check.PipelineStalls
				}
			}(c)
		}
		wg.Wait()
		if pipelined {
			// The dispatcher counters are server-global; every bye frame is a
			// snapshot, so the largest one is the run's best lower bound.
			best := 0
			for c := range rounds {
				if rounds[c] > rounds[best] {
					best = c
				}
			}
			res.Rounds += rounds[best]
			res.Stalls += stalls[best]
		}
		return time.Since(start).Nanoseconds(), verdicts, events
	}
	srvOffNs, offVs, offEv := runSrv(false)
	srvOnNs, onVs, onEv := runSrv(true)
	res.SrvOffNs, res.SrvOnNs = srvOffNs, srvOnNs
	for c := 0; c < clients && res.Err == ""; c++ {
		res.Events += 2 * len(histories[c])
		if offVs[c] != onVs[c] || offEv[c] != onEv[c] || offEv[c] != len(histories[c]) {
			res.Match = false
		}
	}

	if on := res.DecOnNs + res.SrvOnNs; on > 0 {
		res.Ratio = float64(res.DecOffNs+res.SrvOffNs) / float64(on)
	}
	return res
}
