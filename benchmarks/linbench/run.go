package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// repetitions is how often each phase runs; a metric is the median of them.
const repetitions = 3

// startsPerRep is how many extra linmond starts follow each sat repetition,
// so that setup_s is a median over 4·repetitions (durable: resume legs) or
// 2·repetitions + 2·repetitions (phase starts plus start-only probes) starts.
const startsPerRep = 4

// metric is one reported number. Reps holds the repetition values behind a
// median; it goes to result files (for -compare's spread check), not to the
// result line on standard output.
type metric struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Reps  []float64 `json:"reps,omitempty"`
}

func medianOf(unit string, reps []float64) metric {
	return metric{Value: median(reps), Unit: unit, Reps: reps}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the weighted q-quantile of the samples in nanoseconds:
// the smallest latency such that at least q of the total weight is at or
// below it.
func percentile(samples []sample, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	sort.Slice(s, func(i, j int) bool { return s[i].ns < s[j].ns })
	total := 0
	for _, x := range s {
		total += x.weight
	}
	need := q * float64(total)
	acc := 0
	for _, x := range s {
		acc += x.weight
		if float64(acc) >= need {
			return float64(x.ns)
		}
	}
	return float64(s[len(s)-1].ns)
}

// latSlices is how many consecutive runs of operations a lat repetition is
// cut into; each slice has its own median over events.
const latSlices = 8

// sliceP50s returns the weighted median latency, in ms, of each slice of a
// lat pass's samples, which are in the order the acks arrived.
func sliceP50s(samples []sample) []float64 {
	n := min(latSlices, len(samples))
	out := make([]float64, n)
	for i := range out {
		out[i] = percentile(samples[i*len(samples)/n:(i+1)*len(samples)/n], 0.5) / 1e6
	}
	return out
}

// steadyP50 is verdict_p50_ms's estimator over the slice medians of a run's
// lat passes: their lower quartile. What a shared host adds to a pinned
// ping-pong comes in bursts of a second or two during which a slice reads up
// to twice its quiet value, and never less; the quartile holds until bursts
// cover three quarters of the lat time, where a median of three repetition
// medians gave way at two repetitions. A slower program moves every slice.
func steadyP50(ms []float64) metric {
	s := slices.Clone(ms)
	sort.Float64s(s)
	return metric{Value: s[(len(s)-1)/4], Unit: "ms", Reps: ms}
}

func percentileNs(ns []int64, q float64) float64 {
	samples := make([]sample, len(ns))
	for i, v := range ns {
		samples[i] = sample{v, 1}
	}
	return percentile(samples, q)
}

// runner executes one workload against real linmond processes.
type runner struct {
	w       *workload
	plan    *plan
	bin     string    // the linmond binary
	dir     string    // this invocation's work directory
	seconds float64   // -seconds
	end     time.Time // nothing of this run may outlive it
	seq     int       // numbers state directories
	quiet   *quietGate

	attempted, failed int
	firstErr          error
	setups            []float64 // seconds, one per measured start
}

func newRunner(w *workload, p *plan, bin, dir string, seconds float64, quiet *quietGate) *runner {
	return &runner{w: w, plan: p, bin: bin, dir: dir, seconds: seconds, end: time.Now().Add(runLimit), quiet: quiet}
}

// repTimeout is the hard bound on one repetition: ten times what it is sized
// for plus slack, so a hung search becomes failed operations, not a hung
// pipeline.
func (r *runner) repTimeout() time.Duration {
	return time.Duration((10*r.seconds*satShare + 5) * float64(time.Second))
}

func (r *runner) deadline() time.Time {
	d := time.Now().Add(r.repTimeout())
	if d.After(r.end) {
		return r.end
	}
	return d
}

func (r *runner) book(attempted, failed int, err error) {
	r.attempted += attempted
	r.failed += failed
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
}

// args returns linmond's flags for one repetition. Durable workloads get a
// fresh state directory on the checkout's disk; the caller removes it.
func (r *runner) args() (args []string, stateDir string) {
	args = []string{"-workers", "2"}
	if r.w.durable {
		r.seq++
		stateDir = filepath.Join(r.dir, fmt.Sprintf("state-%d", r.seq))
		args = append(args, "-state-dir", stateDir, "-checkpoint-every", "8")
	}
	return args, stateDir
}

// rssSample is linmond's resident set at one moment of a sat pass.
type rssSample struct {
	events int64
	kb     int64
}

// phaseResult is one repetition of one phase.
type phaseResult struct {
	conn  connResult // all connections merged
	wall  time.Duration
	setup time.Duration // exec → every first session has its hello; 0 if one failed
	use   usage
	rss   []rssSample
}

// phase runs one repetition: start a fresh linmond, open each connection's
// first session, play all connections concurrently, stop the daemon. An
// error return means the harness itself broke (linmond would not start or
// stop); operation failures are booked on the runner instead.
func (r *runner) phase(conns [][]*stream, inflight int, args []string, traced bool) (*phaseResult, error) {
	r.quiet.wait()
	lm, err := startLinmond(r.bin, args...)
	if err != nil {
		return nil, err
	}
	deadline := r.deadline()
	var acked atomic.Int64
	players := make([]*player, len(conns))
	opened := true
	for i, streams := range conns {
		players[i] = &player{
			addr: lm.addr, streams: streams, inflight: inflight, perObject: r.w.perObject,
			traced: traced, epoch: lm.started, deadline: deadline, acked: &acked,
		}
		if err := players[i].openFirst(); err != nil {
			opened = false // run() dials again and books the failure
		}
	}
	res := &phaseResult{}
	if opened {
		res.setup = time.Since(lm.started)
	}

	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if traced {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for done := false; !done; {
				select {
				case <-stopSampler:
					done = true // one last sample at the end of the pass
				case <-tick.C:
				}
				res.rss = append(res.rss, rssSample{acked.Load(), lm.statusKB("VmRSS:")})
			}
		}()
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	for _, p := range players {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.run()
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	close(stopSampler)
	sampler.Wait()

	res.use, err = lm.stop()
	if err != nil {
		return nil, err
	}
	for _, p := range players {
		res.conn.merge(&p.res)
	}
	r.book(res.conn.attempted, res.conn.failed, res.conn.err)
	if res.conn.events == 0 {
		return nil, fmt.Errorf("%s: no event was acked: %v", r.w.name, res.conn.err)
	}
	return res, nil
}

// startOnly measures one start without load: exec linmond with args, open
// every stream of conns once, and stop. With resume set the daemon is
// restarting on a state directory a sat pass just left, and every hello must
// say persist and acked = the batches that pass sent — the resume check of
// durable_nq, booked as one operation per object.
func (r *runner) startOnly(conns [][]*stream, args []string, resume bool) (time.Duration, error) {
	lm, err := startLinmond(r.bin, args...)
	if err != nil {
		return 0, err
	}
	deadline := r.deadline()
	ok := true
	for _, streams := range conns {
		s := streams[0]
		c, err := dialOpen(lm.addr, s, deadline)
		if err == nil {
			c.nc.Close()
			if resume && (!c.persist || c.acked != uint64(s.batches())) {
				err = fmt.Errorf("%s: resume mismatch: hello persist=%v acked=%d, sent %d batches",
					s.object, c.persist, c.acked, s.batches())
			}
		}
		switch {
		case resume && err != nil:
			r.book(1, 1, err)
			ok = false
		case resume:
			r.book(1, 0, nil)
		case err != nil:
			lm.kill()
			return 0, fmt.Errorf("start probe: %w", err)
		}
	}
	d := time.Since(lm.started)
	if _, err := lm.stop(); err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil // addSetup drops it
	}
	return d, nil
}

func (r *runner) addSetup(d time.Duration) {
	if d > 0 {
		r.setups = append(r.setups, d.Seconds())
	}
}

// satAndStarts runs one sat repetition and the starts that go with it. On a
// durable workload those are restart-and-resume legs on the pass's own state
// directory, and they alone feed setup_s; otherwise they are start-only
// probes beside the phase's own start.
func (r *runner) satAndStarts(traced bool) (*phaseResult, []time.Duration, error) {
	args, stateDir := r.args()
	// A long run must not accumulate state directories.
	defer os.RemoveAll(stateDir)
	sat, err := r.phase(r.plan.sat, r.w.inflight, args, traced)
	if err != nil {
		return nil, nil, err
	}
	if !r.w.durable {
		r.addSetup(sat.setup)
	}
	n := startsPerRep
	if !r.w.durable {
		n /= 2 // the two phase starts of the repetition count as well
	}
	var starts []time.Duration
	for i := 0; i < n; i++ {
		d, err := r.startOnly(r.plan.sat, args, r.w.durable)
		if err != nil {
			return nil, nil, err
		}
		r.addSetup(d)
		starts = append(starts, d)
	}
	return sat, starts, nil
}

func (r *runner) latPhase(traced bool) (*phaseResult, error) {
	inflight := 1
	if r.w.perObject {
		inflight = r.w.inflight
	}
	args, stateDir := r.args()
	defer os.RemoveAll(stateDir)
	// One CPU for the load generator and the daemon alike; affinity.go says why.
	defer pinToOneCPU()()
	lat, err := r.phase(r.plan.lat, inflight, args, traced)
	if err != nil {
		return nil, err
	}
	if !r.w.durable {
		r.addSetup(lat.setup)
	}
	return lat, nil
}

// endToEnd is the untraced run: three interleaved repetitions of sat and
// lat, every metric the median of its three values (setup_s: of all starts;
// verdict_p50_ms: steadyP50 of all lat slices).
func (r *runner) endToEnd() (map[string]metric, error) {
	var rate, p50, cpu, rss []float64
	for rep := 0; rep < repetitions; rep++ {
		sat, _, err := r.satAndStarts(false)
		if err != nil {
			return nil, err
		}
		ev := float64(sat.conn.events)
		rate = append(rate, ev/sat.wall.Seconds())
		cpu = append(cpu, float64(sat.use.cpu.Microseconds())/ev)
		rss = append(rss, float64(sat.use.peakRSSKB)/1024)

		lat, err := r.latPhase(false)
		if err != nil {
			return nil, err
		}
		p50 = append(p50, sliceP50s(lat.conn.lat)...)
	}
	if len(r.setups) == 0 {
		return nil, errors.New("no start completed")
	}
	return map[string]metric{
		"events_per_s":     medianOf("1/s", rate),
		"verdict_p50_ms":   steadyP50(p50),
		"cpu_us_per_event": medianOf("us", cpu),
		"peak_rss_mb":      medianOf("MB", rss),
		"setup_s":          medianOf("s", r.setups),
	}, nil
}
