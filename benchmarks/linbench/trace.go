package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/check/loglin"
	"repro/internal/ckpt"
	"repro/internal/history"
	"repro/internal/monitorapi"
	"repro/internal/monitorclient"
	"repro/internal/monitorserver"
	"repro/internal/spec"
)

// This file is the traced run. linmond has no clocks of its own yet, so the
// layers are measured from outside: the traced passes record client-side
// spans per batch, and then one connection's exact frames are replayed in
// process, one span around each call into a layer's public function. What
// the replay cannot see — dispatcher, channels, syscalls, the runtime — is
// the remainder against the daemon's measured CPU and latency
// (monitorserver.other_*), so the parts add up to the whole by construction.

// span is one timed interval. Spans of one batch share Object and Seq; a
// layer span's Parent is the client-side root span of the batch that caused
// it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Object string `json:"object"`
	Seq    int    `json:"seq,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type batchKey struct {
	object string
	seq    int
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []span
	roots map[batchKey]int // sat-pass root span of each batch
}

func (t *tracer) add(parent int, name, object string, seq int, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, name, object, seq, start, end})
	return id
}

// addPass turns one traced pass's client timestamps into spans: a root per
// batch (write → ack read) with its write and its wait as children.
func (t *tracer) addPass(pass string, times []batchTimes, keepRoots bool) {
	for _, b := range times {
		root := t.add(0, pass+".batch", b.stream.object, b.seq, b.write, b.acked)
		t.add(root, "loadgen.write", b.stream.object, b.seq, b.write, b.wrote)
		t.add(root, "loadgen.wait_ack", b.stream.object, b.seq, b.wrote, b.acked)
		if keepRoots {
			t.roots[batchKey{b.stream.object, b.seq}] = root
		}
	}
}

// The layer calls the replay times, in the order a batch meets them.
const (
	lDecode = iota
	lFromWire
	lAdd
	lAppend
	lStats
	lEncodeAck
	lEncodeFrame
	lCheckpoint
	lEncodeCkpt
	lSave
	nLayers
)

var layerNames = [nLayers]string{
	"monitorapi.decode", "history.from_wire", "check.shards_add", "check.append", "check.stats",
	"monitorapi.encode_ack", "monitorapi.encode_frame", "check.checkpoint", "monitorapi.encode_ckpt", "ckpt.save",
}

// replayResult is what replaying one connection's frames in process gave.
type replayResult struct {
	events, batches int
	wireBytes       int
	wallNs          int64
	total           [nLayers]int64
	perOp           [nLayers][]sample // one entry per operation
	appendNs        []int64           // per batch
	saveNs          []int64           // per checkpoint
	ckptBytes       int64
	storeRestoreNs  int64 // Store.Restore of the last object
	imageRestoreNs  int64 // DecodeCheckpoint + RestoreIncremental of it
	frontierMax     int   // largest frontier state set after any Append
	verdicts        map[string]string
	err             error // first verdict that differed from the expectation
	wrong           int
}

// replay pushes every frame of streams through the layers the daemon's
// reader and dispatcher call, on one goroutine: decode → FromWire →
// Shards.Append → encode ack, and for a durable workload every eighth batch
// Checkpoint → EncodeCheckpoint → Store.Save on the real disk. This is also
// the single-goroutine baseline (replay.events_per_s).
func replay(w *workload, streams []*stream, stateDir string, tr *tracer) (*replayResult, error) {
	res := &replayResult{verdicts: make(map[string]string)}
	var store *ckpt.Store
	if w.durable {
		var err error
		if store, err = ckpt.NewStore(ckpt.OsFS{}, stateDir); err != nil {
			return nil, err
		}
	}
	shards := check.NewShards(nil, 1)
	var deltas []history.History
	// The daemon's reader decodes every frame into one reused EventBatch
	// (serveConn); the replay pays the same decode, not a costlier one.
	var batch monitorapi.EventBatch
	decode := func(line []byte) (monitorapi.ClientFrame, error) {
		batch.Seq = 0
		clear(batch.Events[:cap(batch.Events)])
		batch.Events = batch.Events[:0]
		cf := monitorapi.ClientFrame{Batch: &batch}
		err := json.Unmarshal(line, &cf)
		return cf, err
	}

	epoch := time.Now()
	var opNs [nLayers]int64
	var object string
	var seq, parent int
	// lap books the interval since t to layer l and returns a fresh reading,
	// so the bookkeeping itself lands in no layer.
	lap := func(l int, t int64) int64 {
		now := time.Since(epoch).Nanoseconds()
		res.total[l] += now - t
		opNs[l] += now - t
		if tr != nil {
			tr.add(parent, layerNames[l], object, seq, t, now)
		}
		return time.Since(epoch).Nanoseconds()
	}
	endOp := func(weight int) {
		for l := range opNs {
			res.perOp[l] = append(res.perOp[l], sample{opNs[l], weight})
			opNs[l] = 0
		}
	}

	var gen uint64
	for _, s := range streams {
		object, seq, parent = s.object, 0, 0
		res.wireBytes += len(s.open) + len(s.frames) + len(byeFrame)
		t := time.Since(epoch).Nanoseconds()
		cf, err := decode(s.open)
		if err != nil || cf.Open == nil {
			return nil, fmt.Errorf("replay %s: open frame: %v", s.object, err)
		}
		t = lap(lDecode, t)
		m, ok := spec.ByName(cf.Open.Model)
		if !ok {
			return nil, fmt.Errorf("replay %s: unknown model %q", s.object, cf.Open.Model)
		}
		shard := shards.Add(m, check.WithConfig(cf.Open.Config))
		for len(deltas) < shards.Len() {
			deltas = append(deltas, nil)
		}
		t = lap(lAdd, t)
		if _, err := json.Marshal(monitorapi.ServerFrame{Type: monitorapi.FrameHello,
			Version: monitorapi.ProtocolVersion, Window: 8, Persist: w.durable}); err != nil {
			return nil, err
		}
		lap(lEncodeFrame, t)

		key, durable := tenant+"\x00"+s.object, uint64(0)
		gen = 0
		verdicts := make([]byte, 0, s.batches())
		for i := range s.end {
			seq = i + 1
			if tr != nil {
				parent = tr.roots[batchKey{s.object, seq}]
			}
			t := time.Since(epoch).Nanoseconds()
			cf, err := decode(s.frame(i))
			if err != nil || cf.Batch.Seq != uint64(seq) {
				return nil, fmt.Errorf("replay %s: batch %d: %v", s.object, seq, err)
			}
			t = lap(lDecode, t)
			h, err := history.FromWire(cf.Batch.Events)
			if err != nil {
				return nil, fmt.Errorf("replay %s: batch %d: %w", s.object, seq, err)
			}
			t = lap(lFromWire, t)
			deltas[shard] = h
			v := shards.Append(deltas)[shard]
			deltas[shard] = nil
			res.appendNs = append(res.appendNs, time.Since(epoch).Nanoseconds()-t)
			t = lap(lAppend, t)
			res.frontierMax = max(res.frontierMax, shards.Shard(shard).FrontierSize())
			if store != nil && seq%8 == 0 {
				img, err := shards.Shard(shard).Checkpoint()
				if err != nil {
					return nil, err
				}
				t = lap(lCheckpoint, t)
				payload, err := monitorapi.EncodeCheckpoint(&monitorapi.Checkpoint{
					Tenant: tenant, Object: s.object, Model: s.model, Config: s.cfg,
					AppliedSeq: uint64(seq), Monitor: img,
				})
				if err != nil {
					return nil, err
				}
				t = lap(lEncodeCkpt, t)
				if gen, err = store.Save(key, gen, payload); err != nil {
					return nil, err
				}
				res.saveNs = append(res.saveNs, time.Since(epoch).Nanoseconds()-t)
				res.ckptBytes += int64(len(payload))
				durable = uint64(seq)
				t = lap(lSave, t)
			}
			if _, err := json.Marshal(monitorapi.ServerFrame{Type: monitorapi.FrameAck,
				Seq: uint64(seq), Verdict: v.String(), Durable: durable}); err != nil {
				return nil, err
			}
			lap(lEncodeAck, t)
			verdicts = append(verdicts, v.String()[0])
			if v.String() != s.want(i) {
				res.wrong++
				if res.err == nil {
					res.err = fmt.Errorf("replay %s: batch %d: verdict %v, want %s", s.object, seq, v, s.want(i))
				}
			}
			res.events += s.nev[i]
			res.batches++
			if !w.perObject {
				endOp(s.nev[i])
			}
		}
		res.verdicts[s.object] = string(verdicts)

		seq, parent = 0, 0
		t = time.Since(epoch).Nanoseconds()
		if _, err := decode(byeFrame); err != nil {
			return nil, err
		}
		t = lap(lDecode, t)
		sh := shards.Shard(shard)
		st := sh.Stats()
		t = lap(lStats, t)
		if _, err := json.Marshal(monitorapi.ServerFrame{Type: monitorapi.FrameStats,
			Verdict: sh.Verdict().String(), Stats: &monitorapi.Stats{Check: st}}); err != nil {
			return nil, err
		}
		lap(lEncodeFrame, t)
		if w.perObject {
			endOp(1)
		}

		if store != nil && gen > 0 {
			t0 := time.Now()
			payload, _, err := store.Restore(key)
			if err != nil {
				return nil, err
			}
			res.storeRestoreNs = time.Since(t0).Nanoseconds()
			t0 = time.Now()
			cp, err := monitorapi.DecodeCheckpoint(payload)
			if err == nil {
				_, err = check.RestoreIncremental(cp.Monitor)
			}
			if err != nil {
				return nil, err
			}
			res.imageRestoreNs = time.Since(t0).Nanoseconds()
		}
	}
	res.wallNs = time.Since(epoch).Nanoseconds()
	return res, nil
}

// monitorclientProbe sends conns' streams through the library client against
// an in-process server: what an application using monitorclient gets. It is
// diagnostic only — on two or more CPUs the server can close a well-behaved
// monitorclient session for a false window overrun (ROADMAP, first open
// item), so failed sessions are reported, not booked as failed operations.
func monitorclientProbe(conns [][]*stream) (eventsPerS float64, failed int, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := monitorserver.Serve(ln, monitorserver.Options{Workers: 2, Logf: func(string, ...any) {}})
	defer srv.Close()
	addr := srv.Addr().String()
	var mu sync.Mutex
	events := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, streams := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range streams {
				ok := func() bool {
					sess, err := monitorclient.Dial(addr, tenant, s.object, s.model, monitorclient.WithConfig(s.cfg))
					if err != nil {
						return false
					}
					at := 0
					for _, k := range s.nev {
						if err := sess.Send(s.h[at : at+k]); err != nil {
							sess.Close()
							return false
						}
						at += k
					}
					_, err = sess.Close()
					return err == nil
				}()
				mu.Lock()
				if ok {
					events += s.events
				} else {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(events) / time.Since(t0).Seconds(), failed, nil
}

// loglinProbe times the log-linear tier alone on every stream it can apply
// to: a tier-supported model under a Config that never moves the monitor off
// the initial state (no retention), which is where the monitor consults it.
func loglinProbe(conns [][]*stream) (usPerEvent, decidedRatio, stepsPerEvent float64) {
	var ns int64
	var events, attempts, decided, steps int
	for _, streams := range conns {
		for _, s := range streams {
			m, _ := spec.ByName(s.model)
			if s.cfg.Retain || s.cfg.NoFastTier || !loglin.Supported(m) {
				continue
			}
			t0 := time.Now()
			r := loglin.Decide(m, s.h)
			ns += time.Since(t0).Nanoseconds()
			attempts++
			events += s.events
			steps += r.Steps
			if r.V != loglin.Ambiguous {
				decided++
			}
		}
	}
	if attempts == 0 {
		return 0, 0, 0
	}
	return float64(ns) / 1e3 / float64(events), float64(decided) / float64(attempts), float64(steps) / float64(events)
}

// perLayer is the traced run: one sat pass and one lat pass with client-side
// spans, one plain lat pass to price the tracing, then the in-process replay
// and the layer probes. It returns every per-layer metric.
func (r *runner) perLayer(genS float64, seed int64) (map[string]metric, error) {
	tr := &tracer{roots: make(map[batchKey]int)}
	sat, starts, err := r.satAndStarts(true)
	if err != nil {
		return nil, err
	}
	tr.addPass("sat", sat.conn.times, true)
	plain, err := r.latPhase(false)
	if err != nil {
		return nil, err
	}
	traced, err := r.latPhase(true)
	if err != nil {
		return nil, err
	}
	tr.addPass("lat", traced.conn.times, false)

	stateDir := filepath.Join(r.dir, "replay-state")
	rp, err := replay(r.w, r.plan.sat[0], stateDir, tr)
	os.RemoveAll(stateDir)
	if err != nil {
		return nil, err
	}
	r.book(0, rp.wrong, rp.err)
	// The replay applies one batch per Append, so its verdicts are the exact
	// per-batch reference. linmond must agree on every stream's last verdict,
	// and on every single one in the ping-pong pass, where an ack cannot
	// reflect a later batch.
	for object, got := range sat.conn.verdicts {
		if want, ok := rp.verdicts[object]; ok && got[len(got)-1] != want[len(want)-1] {
			r.book(0, 1, fmt.Errorf("%s: linmond's final verdict %c, in-process replay %c", object, got[len(got)-1], want[len(want)-1]))
		}
	}
	if !r.w.perObject {
		for object, got := range traced.conn.verdicts {
			if want := rp.verdicts[object]; got != want[:len(got)] {
				r.book(0, 1, fmt.Errorf("%s: linmond's ping-pong verdicts differ from the in-process replay's", object))
			}
		}
	}

	mcRate, mcFailed, err := monitorclientProbe(r.plan.sat)
	if err != nil {
		return nil, err
	}
	llUs, llDecided, llSteps := loglinProbe(r.plan.sat)
	if err := writeTrace(r.w.name, seed, r.seconds, tr); err != nil {
		return nil, err
	}

	ev := float64(rp.events)
	perEvent := func(l int) float64 { return float64(rp.total[l]) / 1e3 / ev }
	perSave := func(v int64) float64 {
		if len(rp.saveNs) == 0 {
			return 0
		}
		return float64(v) / 1e3 / float64(len(rp.saveNs))
	}
	st := sat.conn.stats
	kev := float64(sat.conn.events) / 1e3
	perK := func(n int) float64 { return float64(n) / kev }

	// The two remainders. CPU: every layer's time per event except
	// ckpt.save's, which is mostly the disk's time, not the processor's (its
	// CPU — write, fsync and rename system calls — stays in the remainder;
	// thread rusage around calls this short proved too coarse to split it
	// out). Latency: every layer's p50 per operation.
	cpuLayers, p50Layers := 0.0, 0.0
	budget := make(map[string][2]float64) // module -> CPU us/event, p50 us/operation
	for l := 0; l < nLayers; l++ {
		module, _, _ := strings.Cut(layerNames[l], ".")
		b := budget[module]
		if l != lSave {
			cpuLayers += perEvent(l)
			b[0] += perEvent(l)
		}
		p50Layers += percentile(rp.perOp[l], 0.5) / 1e3
		b[1] += percentile(rp.perOp[l], 0.5) / 1e3
		budget[module] = b
	}
	cpuPerEvent := float64(sat.use.cpu.Microseconds()) / float64(sat.conn.events)
	p50 := steadyP50(sliceP50s(plain.conn.lat)).Value * 1e6 // ns
	budget["monitorserver"] = [2]float64{cpuPerEvent - cpuLayers, p50/1e3 - p50Layers}
	fmt.Fprintf(os.Stderr, "%s layer budget   cpu us/event  share   p50 us/op  share\n", r.w.name)
	for _, module := range []string{"history", "monitorapi", "check", "ckpt", "monitorserver"} {
		b := budget[module]
		fmt.Fprintf(os.Stderr, "  %-16s %12.3f %5.1f%% %11.1f %5.1f%%\n", module,
			b[0], 100*b[0]/cpuPerEvent, b[1], 100*b[1]/(p50/1e3))
	}
	fmt.Fprintf(os.Stderr, "  %-16s %12.3f %5.1f%% %11.1f %5.1f%%\n", "whole", cpuPerEvent, 100.0, p50/1e3, 100.0)

	hitRatio := 0.0
	if n := st.FastTierHits + st.FastTierFallbacks; n > 0 {
		hitRatio = float64(st.FastTierHits) / float64(n)
	}
	resumeMs := 0.0
	if r.w.durable {
		ms := make([]float64, len(starts))
		for i, d := range starts {
			ms[i] = d.Seconds() * 1e3
		}
		resumeMs = median(ms)
	}

	us := func(v float64) metric { return metric{Value: v, Unit: "us"} }
	count := func(v float64) metric { return metric{Value: v, Unit: "count"} }
	return map[string]metric{
		"history.from_wire_us_per_event": us(perEvent(lFromWire)),

		"monitorapi.decode_us_per_event":     us(perEvent(lDecode)),
		"monitorapi.wire_bytes_per_event":    {Value: float64(rp.wireBytes) / ev, Unit: "bytes"},
		"monitorapi.encode_ack_us_per_batch": us(float64(rp.total[lEncodeAck]) / 1e3 / float64(rp.batches)),
		"monitorapi.encode_ckpt_us":          us(perSave(rp.total[lEncodeCkpt])),
		"monitorapi.ckpt_bytes":              {Value: perSave(rp.ckptBytes * 1e3), Unit: "bytes"},

		"check.append_us_per_event":        us(perEvent(lAppend)),
		"check.append_p99_us":              us(percentileNs(rp.appendNs, 0.99) / 1e3),
		"check.seg_checks_per_kevent":      count(perK(st.SegChecks)),
		"check.seg_explored_per_event":     count(perK(st.SegExplored) / 1e3),
		"check.search_rebuilds_per_kevent": count(perK(st.SearchRebuilds)),
		"check.compactions_per_kevent":     count(perK(st.Compactions)),
		"check.commit_cuts_per_kevent":     count(perK(st.CommitCuts)),
		"check.gc_runs_per_kevent":         count(perK(st.GCRuns)),
		"check.frontier_overflows":         count(float64(st.FrontierOverflows)),
		"check.retained_events_max":        count(float64(sat.conn.retainedMax)),
		// Gauges arrive every 16th ack, which on search_frontier is always
		// after a reveal burst has collapsed the frontier; the replay sees
		// every batch boundary.
		"check.frontier_states_max": count(float64(max(sat.conn.frontierMax, rp.frontierMax))),
		"check.fast_tier_hit_ratio": {Value: hitRatio, Unit: "ratio"},
		"check.checkpoint_us":       us(perSave(rp.total[lCheckpoint])),
		"check.restore_us":          us(float64(rp.imageRestoreNs) / 1e3),

		"loglin.decide_us_per_event": us(llUs),
		"loglin.decided_ratio":       {Value: llDecided, Unit: "ratio"},
		"loglin.steps_per_event":     count(llSteps),

		"ckpt.save_us_p50":      us(percentileNs(rp.saveNs, 0.5) / 1e3),
		"ckpt.save_us_p99":      us(percentileNs(rp.saveNs, 0.99) / 1e3),
		"ckpt.saves_per_kevent": count(perK(sat.conn.saves)),
		"ckpt.restore_us":       us(float64(rp.storeRestoreNs) / 1e3),

		"monitorserver.other_cpu_us_per_event":   us(cpuPerEvent - cpuLayers),
		"monitorserver.other_us_per_batch":       us(p50/1e3 - p50Layers),
		"monitorserver.batches_per_append":       {Value: float64(sat.conn.batches) / float64(max(st.Appends, 1)), Unit: "ratio"},
		"monitorserver.open_us_p50":              us(percentileNs(sat.conn.openNs, 0.5) / 1e3),
		"monitorserver.bye_us_p50":               us(percentileNs(sat.conn.byeNs, 0.5) / 1e3),
		"monitorserver.resume_ms":                {Value: resumeMs, Unit: "ms"},
		"monitorserver.rss_growth_kb_per_kevent": {Value: rssGrowth(sat.rss), Unit: "kB"},

		"monitorclient.events_per_s":    {Value: mcRate, Unit: "1/s"},
		"monitorclient.sessions_failed": count(float64(mcFailed)),

		"replay.events_per_s": {Value: ev / (float64(rp.wallNs) / 1e9), Unit: "1/s"},

		"loadgen.gen_s":              {Value: genS, Unit: "s"},
		"loadgen.verdict_p99_ms":     {Value: percentile(plain.conn.lat, 0.99) / 1e6, Unit: "ms"},
		"loadgen.send_stall_share":   {Value: float64(sat.conn.stallNs) / (float64(sat.wall.Nanoseconds()) * float64(len(r.plan.sat))), Unit: "ratio"},
		"loadgen.trace_overhead_pct": {Value: (steadyP50(sliceP50s(traced.conn.lat)).Value*1e6 - p50) / p50 * 100, Unit: "%"},
	}, nil
}

// rssGrowth is the slope of linmond's resident set over the last three
// quarters of a sat pass, in kB per thousand events: past start-up, what is
// left is what the daemon keeps per event it has seen.
func rssGrowth(rss []rssSample) float64 {
	if len(rss) < 2 {
		return 0
	}
	last := rss[len(rss)-1]
	for _, s := range rss {
		if s.events >= last.events/4 {
			if last.events == s.events {
				return 0
			}
			return float64(last.kb-s.kb) / (float64(last.events-s.events) / 1e3)
		}
	}
	return 0
}

// writeTrace writes the run's spans, with a host block, next to the other
// build outputs.
func writeTrace(workload string, seed int64, seconds float64, tr *tracer) error {
	f, err := os.Create(filepath.Join(workRoot, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Host     hostInfo `json:"host"`
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Seconds  float64  `json:"seconds"`
		Spans    []span   `json:"spans"`
	}{thisHost(), workload, seed, seconds, tr.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
