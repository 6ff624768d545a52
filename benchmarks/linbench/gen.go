package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/check"
	"repro/internal/history"
	"repro/internal/monitorapi"
	"repro/internal/spec"
	"repro/internal/trace"
)

// tenant keys every object the benchmark opens.
const tenant = "linbench"

// batchEvents is the batch size of the workloads that cut a stream at fixed
// event counts (search_frontier sends one burst per batch instead).
const batchEvents = 32

// stream is one monitored object's complete session, encoded once in set-up
// so that a timed loop only writes bytes: the open frame, then every events
// frame back to back in one pointer-free buffer.
type stream struct {
	object string
	model  string
	cfg    check.Config
	open   []byte // the open frame line
	frames []byte // events frames, NDJSON, seq 1..len(end)
	end    []int  // frames[end[i-1]:end[i]] is batch i's line
	nev    []int  // events in batch i
	events int    // sum of nev
	// firstNo is the first batch whose ack must carry "No"; len(end) when the
	// whole stream is linearizable. One index is enough: membership is
	// prefix-closed, so the expected verdicts are Yes…Yes No…No.
	firstNo int
	// h is the decoded stream, kept for the in-process layer probes.
	h history.History
}

func (s *stream) batches() int { return len(s.end) }

// frame returns batch i's encoded line (0-based).
func (s *stream) frame(i int) []byte {
	start := 0
	if i > 0 {
		start = s.end[i-1]
	}
	return s.frames[start:s.end[i]]
}

// want is the verdict batch i's ack must carry (0-based).
func (s *stream) want(i int) string {
	if i >= s.firstNo {
		return "No"
	}
	return "Yes"
}

// prefix returns the stream cut after n batches, sharing the encoded bytes.
func (s *stream) prefix(n int) *stream {
	if n >= s.batches() {
		return s
	}
	p := *s
	p.end, p.nev = s.end[:n], s.nev[:n]
	p.frames = s.frames[:p.end[n-1]]
	p.events = 0
	for _, k := range p.nev {
		p.events += k
	}
	p.h = s.h[:p.events]
	if p.firstNo > n {
		p.firstNo = n
	}
	return &p
}

// encodeStream cuts h into batches at the given event counts and encodes
// every frame. The verdict expectation is filled in by the caller.
func encodeStream(object, model string, cfg check.Config, h history.History, cuts []int) (*stream, error) {
	s := &stream{object: object, model: model, cfg: cfg, h: h, events: len(h), nev: cuts}
	var err error
	s.open, err = json.Marshal(monitorapi.ClientFrame{Type: monitorapi.FrameOpen, Open: &monitorapi.Open{
		Version: monitorapi.ProtocolVersion, Tenant: tenant, Object: object, Model: model, Config: cfg,
	}})
	if err != nil {
		return nil, err
	}
	s.open = append(s.open, '\n')
	wire, err := history.ToWire(h)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", object, err)
	}
	s.frames = make([]byte, 0, len(h)*72)
	s.end = make([]int, 0, len(cuts))
	at := 0
	for i, n := range cuts {
		line, err := json.Marshal(monitorapi.ClientFrame{Type: monitorapi.FrameEvents,
			Batch: &monitorapi.EventBatch{Seq: uint64(i + 1), Events: wire[at : at+n]}})
		if err != nil {
			return nil, err
		}
		s.frames = append(append(s.frames, line...), '\n')
		s.end = append(s.end, len(s.frames))
		at += n
	}
	s.firstNo = len(cuts)
	return s, nil
}

// fixedCuts cuts n events into batches of batchEvents, the last one short.
func fixedCuts(n int) []int {
	cuts := make([]int, 0, n/batchEvents+1)
	for ; n > batchEvents; n -= batchEvents {
		cuts = append(cuts, batchEvents)
	}
	if n > 0 {
		cuts = append(cuts, n)
	}
	return cuts
}

// plan is a workload's generated input: what each connection of the sat
// phase plays, and what the single connection of the lat phase plays. A
// connection plays its streams in order, one session each.
type plan struct {
	sat [][]*stream
	lat [][]*stream
}

// sizes is how much work one repetition of each phase holds. It is derived
// from -seconds by the workload's nominal rates, never from a clock, so a
// given (seed, seconds) always generates the same bytes.
type sizes struct {
	sat int // events (objects for objects_churn) per sat repetition
	lat int // events (objects) per lat repetition
}

// workload is one of the benchmark's four traffic shapes.
type workload struct {
	name string
	why  string
	// durable runs linmond with -state-dir and -checkpoint-every 8 and ends
	// every sat repetition with SIGTERM, restart and resume.
	durable bool
	// inflight is the number of batches each sat connection keeps unacked.
	inflight int
	// perObject makes one whole session (open … stats) the operation and the
	// latency sample; otherwise it is one batch.
	perObject bool
	// satRate and latRate are the nominal events (objects) per second of the
	// calibration host; they only turn -seconds into stream lengths.
	satRate, latRate float64
	gen              func(seed int64, sz sizes) (*plan, error)
}

// Shares of -seconds one repetition of each phase is sized for. Three
// repetitions of each add up to 0.9; the rest covers starts and probes.
const (
	satShare = 0.17
	latShare = 0.13
)

func (w *workload) sizes(seconds float64) sizes {
	return sizes{
		sat: max(int(w.satRate*seconds*satShare), 1),
		lat: max(int(w.latRate*seconds*latShare), 1),
	}
}

var workloads = []*workload{
	{
		name: "wire_nq",
		why: "2 never-quiescent queue streams, 32-event batches, 7 in flight, commit-cut retention: " +
			"search is negligible, so wire decode, dispatcher, socket and ack work dominate",
		inflight: 7, satRate: 250e3, latRate: 180e3,
		gen: genNQ,
	},
	{
		name: "durable_nq",
		why: "wire_nq's bytes against linmond -state-dir -checkpoint-every 8, each sat pass ending in " +
			"SIGTERM, restart and resume: prices checkpoint encode+fsync+rename on the ack path",
		durable: true, inflight: 7, satRate: 250e3, latRate: 180e3,
		gen: genNQ,
	},
	{
		name: "search_frontier",
		why: "2 queue streams of ambiguity+reveal bursts, one burst per batch, 1 in flight: ~370 us/event " +
			"of exact Wing-Gong search over a 6-state frontier, wire under 1%",
		inflight: 1, satRate: 3400, latRate: 3400,
		gen: genFrontier,
	},
	{
		name: "objects_churn",
		why: "thousands of short sessions over 6 models, a quarter mutated, zero Config: the only load on " +
			"open/hello/bye, Shards.Add, the log-linear tier and No verdicts",
		inflight: 7, perObject: true, satRate: 2000, latRate: 1500,
		gen: genChurn,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// parallel runs f(0..n-1) on up to two goroutines (the host class this
// benchmark is sized for has two CPUs) and returns the first error.
func parallel(n int, f func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	sem := make(chan struct{}, 2)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// nqConfig is the configuration of both *_nq workloads: bounded retention
// with commit-point cuts, the only policy that keeps a never-quiescent
// stream's window finite.
var nqConfig = check.Config{Retain: true, Retention: check.RetentionPolicy{CommitCuts: true}}

// genNQ builds wire_nq's and durable_nq's input: two sessions of
// trace.NeverQuiescent over 4 processes. The lat phase replays a prefix of
// session 0 against a fresh linmond.
func genNQ(seed int64, sz sizes) (*plan, error) {
	// NeverQuiescent emits two events per operation.
	nops := max(sz.sat/4, 64)
	ss := make([]*stream, 2)
	err := parallel(2, func(i int) error {
		h := trace.NeverQuiescent(spec.Queue(), seed+int64(i), 4, nops)
		s, err := encodeStream(fmt.Sprintf("nq-%d", i), "queue", nqConfig, h, fixedCuts(len(h)))
		if err != nil {
			return err
		}
		ss[i] = s
		return selfCheckIncremental(s)
	})
	if err != nil {
		return nil, err
	}
	return &plan{
		sat: [][]*stream{{ss[0]}, {ss[1]}},
		lat: [][]*stream{{ss[0].prefix(max(sz.lat/batchEvents, 1))}},
	}, nil
}

// frontierChunk is how many rounds of one reveal order run back to back
// (fewer only on streams too short to hold two such chunks).
const frontierChunk = 10

// frontierConfig keeps the exact frontier set at every quiescent cut, which
// is what makes each reveal burst a six-state segment check.
var frontierConfig = check.Config{Retain: true}

// genFrontier builds search_frontier's input: two sessions of
// trace.FrontierRounds, one burst per batch. The seed shuffles, per
// frontierChunk rounds, which reveal order is used; exactly half the chunks
// take each order, because the late order costs five refutations per round
// and the early one none, so an unbalanced draw would make the work, not the
// system, differ between seeds.
func genFrontier(seed int64, sz sizes) (*plan, error) {
	const roundEvents = 36             // 6 in the ambiguity burst, 30 in the reveal burst
	rounds := sz.sat / 2 / roundEvents // per session
	per := min(frontierChunk, max(rounds/2, 1))
	chunks := max(rounds/per, 2)
	chunks += chunks % 2
	ss := make([]*stream, 2)
	err := parallel(2, func(i int) error {
		rng := rand.New(rand.NewSource(seed*2 + int64(i)))
		first := make([]bool, chunks)
		for c := range first {
			first[c] = c%2 == 0
		}
		rng.Shuffle(chunks, func(a, b int) { first[a], first[b] = first[b], first[a] })
		var h history.History
		var cuts []int
		for c, revealFirst := range first {
			bursts := trace.FrontierRounds(per, revealFirst)
			// Every chunk numbers its operations from 1 and its values from
			// 100; shift both so ids and values stay unique in the stream.
			idOff := uint64(c*per) * roundEvents / 2
			valOff := int64(c*per) * 100
			for _, b := range bursts {
				for _, e := range b {
					e.ID += idOff
					e.Op.Uniq += idOff
					if e.Op.Method == spec.MethodEnq {
						e.Op.Arg += valOff
					}
					if e.Kind == history.Return && e.Res.Kind == spec.KindValue {
						e.Res.Val += valOff
					}
					h = append(h, e)
				}
				cuts = append(cuts, len(b))
			}
		}
		s, err := encodeStream(fmt.Sprintf("frontier-%d", i), "queue", frontierConfig, h, cuts)
		if err != nil {
			return err
		}
		ss[i] = s
		return selfCheckIncremental(s)
	})
	if err != nil {
		return nil, err
	}
	latBatches := max(sz.lat/roundEvents, 1) * 2
	return &plan{
		sat: [][]*stream{{ss[0]}, {ss[1]}},
		lat: [][]*stream{{ss[0].prefix(latBatches)}},
	}, nil
}

var churnModels = []string{"queue", "stack", "set", "pqueue", "register", "counter"}

// genChurn builds objects_churn's input: sz.sat short sessions, object i a
// width-2 random linearizable history of model i mod 6, every fourth one
// mutated. Expected verdicts come from the one-shot reference search on each
// batch prefix. Even objects play on connection 0, odd ones on connection 1;
// the lat phase plays the first sz.lat objects on one connection.
func genChurn(seed int64, sz sizes) (*plan, error) {
	n := max(sz.sat, 2)
	objs := make([]*stream, n)
	err := parallel(2, func(half int) error {
		for i := half; i < n; i += 2 {
			name := churnModels[i%len(churnModels)]
			m, _ := spec.ByName(name)
			h := trace.RandomLinearizable(m, seed*1000003+int64(i), 2, 96)
			if i%4 == 3 {
				h = trace.Mutate(h, seed+int64(i))
			}
			s, err := encodeStream(fmt.Sprintf("obj-%d", i), name, check.Config{}, h, fixedCuts(len(h)))
			if err != nil {
				return err
			}
			if !check.IsLinearizable(m, h) {
				at := 0
				for b, k := range s.nev {
					at += k
					if !check.IsLinearizable(m, h[:at]) {
						s.firstNo = b
						break
					}
				}
			}
			objs[i] = s
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &plan{sat: make([][]*stream, 2)}
	for i, s := range objs {
		p.sat[i%2] = append(p.sat[i%2], s)
	}
	p.lat = [][]*stream{objs[:min(max(sz.lat, 1), n)]}
	return p, nil
}

// selfCheckIncremental is the set-up self-check of the long streams: an
// in-process monitor under the stream's own Config, fed the same batches,
// must answer Yes after every one. It shares the engine with the daemon but
// none of the wire, dispatcher or session code. (The one-shot reference
// search is kept for objects_churn's short histories; on a stream of 10^5
// events it has no bounded window to work in.)
func selfCheckIncremental(s *stream) error {
	m, _ := spec.ByName(s.model)
	inc := check.NewIncremental(m, check.WithConfig(s.cfg))
	at := 0
	for b, k := range s.nev {
		if v := inc.Append(s.h[at : at+k]); v != check.Yes {
			return fmt.Errorf("self-check: %s batch %d: reference verdict %v, generator promises Yes (%v)",
				s.object, b+1, v, inc.Err())
		}
		at += k
	}
	return nil
}
