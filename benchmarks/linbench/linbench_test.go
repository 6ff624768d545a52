package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smokeSeconds puts every workload at about 1/100 of its benchmark size.
const smokeSeconds = 0.15

var testBin, testDir string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		if err := os.MkdirAll(workRoot, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		var err error
		if testDir, err = os.MkdirTemp(workRoot, "test-"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(testDir)
		defer killAllLinmonds()
		if testBin, err = buildLinmond(testDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

func allStreams(p *plan) []*stream {
	var out []*stream
	for _, conns := range [][][]*stream{p.sat, p.lat} {
		for _, c := range conns {
			out = append(out, c...)
		}
	}
	return out
}

// TestSeededFrames: the same seed gives byte-identical frames and the same
// expected verdicts; another seed gives other bytes.
func TestSeededFrames(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			gen := func(seed int64) []*stream {
				p, err := w.gen(seed, w.sizes(smokeSeconds))
				if err != nil {
					t.Fatal(err)
				}
				return allStreams(p)
			}
			a, b, c := gen(7), gen(7), gen(8)
			if len(a) != len(b) {
				t.Fatalf("same seed, %d and %d streams", len(a), len(b))
			}
			differs := len(a) != len(c)
			for i := range a {
				if !bytes.Equal(a[i].open, b[i].open) || !bytes.Equal(a[i].frames, b[i].frames) || a[i].firstNo != b[i].firstNo {
					t.Fatalf("stream %s differs between two generations from seed 7", a[i].object)
				}
				if !differs && !bytes.Equal(a[i].frames, c[i].frames) {
					differs = true
				}
			}
			if !differs {
				t.Fatal("seeds 7 and 8 generated the same bytes")
			}
		})
	}
}

// TestWireAndDurableShareInput: durable_nq must measure wire_nq's bytes.
func TestWireAndDurableShareInput(t *testing.T) {
	a, err := workloadByName("wire_nq").gen(3, workloadByName("wire_nq").sizes(smokeSeconds))
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloadByName("durable_nq").gen(3, workloadByName("durable_nq").sizes(smokeSeconds))
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := allStreams(a), allStreams(b)
	for i := range sa {
		if !bytes.Equal(sa[i].frames, sb[i].frames) {
			t.Fatalf("stream %d differs", i)
		}
	}
}

func loadSpecT(t *testing.T) *benchSpec {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec, nonZero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, ms := range want {
		m, ok := got[ms.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", ms.Name)
		case m.Unit != ms.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", ms.Name, m.Unit, ms.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", ms.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", ms.Name, m.Value)
		}
	}
}

// TestSmoke runs all four workloads at about 1/100 scale against the real
// binary: both phases untraced, then the traced run with the durable resume
// leg and the in-process replay, whose verdicts perLayer compares with the
// ones linmond returned (a difference is booked as a failed operation).
func TestSmoke(t *testing.T) {
	spec := loadSpecT(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p, err := w.gen(11, w.sizes(smokeSeconds))
			if err != nil {
				t.Fatal(err)
			}
			r := newRunner(w, p, testBin, testDir, smokeSeconds, nil)
			e2e, err := r.endToEnd()
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("untraced run: %d of %d operations failed: %v", r.failed, r.attempted, r.firstErr)
			}
			checkMetrics(t, e2e, spec.EndToEnd, true)

			r = newRunner(w, p, testBin, testDir, smokeSeconds, nil)
			layers, err := r.perLayer(0, 11)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("traced run: %d of %d operations failed: %v", r.failed, r.attempted, r.firstErr)
			}
			checkMetrics(t, layers, spec.PerLayer, false)
			if w.durable && (layers["monitorserver.resume_ms"].Value <= 0 || layers["ckpt.saves_per_kevent"].Value <= 0) {
				t.Errorf("durable run saw no resume (%v ms) or no checkpoint (%v per kevent)",
					layers["monitorserver.resume_ms"].Value, layers["ckpt.saves_per_kevent"].Value)
			}
			if w.perObject && layers["loglin.decided_ratio"].Value <= 0 {
				t.Error("the log-linear tier decided nothing on objects_churn")
			}

			raw, err := os.ReadFile(filepath.Join(workRoot, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				Host  hostInfo `json:"host"`
				Spans []span   `json:"spans"`
			}
			if err := json.Unmarshal(raw, &tr); err != nil {
				t.Fatal(err)
			}
			children := 0
			for _, s := range tr.Spans {
				if s.Parent != 0 && s.Name == "check.append" {
					children++
				}
			}
			if tr.Host.CPUs == 0 || children == 0 {
				t.Errorf("trace file: host %+v, %d check.append spans with a batch parent", tr.Host, children)
			}
		})
	}
}

// TestChurnHasViolations: objects_churn is the workload that exercises No
// verdicts, so its generator must produce some.
func TestChurnHasViolations(t *testing.T) {
	w := workloadByName("objects_churn")
	p, err := w.gen(5, sizes{sat: 200, lat: 10})
	if err != nil {
		t.Fatal(err)
	}
	no := 0
	for _, c := range p.sat {
		for _, s := range c {
			if s.firstNo < s.batches() {
				no++
			}
		}
	}
	if no == 0 || no > 50 {
		t.Fatalf("%d of 200 objects are non-linearizable; every fourth is mutated", no)
	}
}

// TestCorruptExpectedFails: a wrong expected verdict must surface as failed
// operations, which is what makes the command exit non-zero.
func TestCorruptExpectedFails(t *testing.T) {
	for _, name := range []string{"wire_nq", "objects_churn"} {
		w := workloadByName(name)
		p, err := w.gen(2, w.sizes(smokeSeconds))
		if err != nil {
			t.Fatal(err)
		}
		corruptExpected(p)
		r := newRunner(w, p, testBin, testDir, smokeSeconds, nil)
		args, _ := r.args()
		if _, err := r.phase(p.sat, w.inflight, args, false); err != nil {
			t.Fatal(err)
		}
		if r.failed == 0 {
			t.Errorf("%s: corrupted expectation passed", name)
		}
	}
}

// TestBenchmarkJSON: the contract file names this program's workloads, with
// the reasons the code records.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestPinToOneCPU: the lat phase's pin leaves every thread of the process on
// one CPU, a child started meanwhile inherits it, and undoing it gives every
// thread its mask back.
func TestPinToOneCPU(t *testing.T) {
	orig, err := getAffinity(0)
	if err != nil {
		t.Skipf("sched_getaffinity: %v", err)
	}
	masks := func() map[cpuSet]int {
		got := make(map[cpuSet]int)
		tasks, _ := os.ReadDir("/proc/self/task")
		for _, task := range tasks {
			var tid int
			fmt.Sscan(task.Name(), &tid)
			if m, err := getAffinity(tid); err == nil {
				got[m]++
			}
		}
		return got
	}
	undo := pinToOneCPU()
	if got := masks(); len(got) != 1 || got[orig.last()] == 0 {
		undo()
		t.Fatalf("pinned: thread masks %v, want only %v", got, orig.last())
	}
	lm, err := startLinmond(testBin)
	if err != nil {
		undo()
		t.Fatal(err)
	}
	child, err := getAffinity(lm.cmd.Process.Pid)
	lm.kill()
	undo()
	if err != nil || child != orig.last() {
		t.Errorf("linmond started while pinned has mask %v (%v), want %v", child, err, orig.last())
	}
	if got := masks(); len(got) != 1 || got[orig] == 0 {
		t.Errorf("after undo: thread masks %v, want only %v", got, orig)
	}
}

// TestSteadyP50: a lat pass is cut into latSlices medians in arrival order,
// and bursts that double up to three quarters of them leave the estimate on
// the quiet value.
func TestSteadyP50(t *testing.T) {
	var samples []sample
	for i := 0; i < 10*latSlices; i++ {
		ns := int64(100_000 + i%7)
		if i >= 20 && i < 70 { // slices 2–6 sit inside a burst
			ns *= 2
		}
		samples = append(samples, sample{ns, 32})
	}
	sl := sliceP50s(samples)
	if len(sl) != latSlices {
		t.Fatalf("%d slices, want %d", len(sl), latSlices)
	}
	if sl[0] > 0.11 || sl[3] < 0.19 {
		t.Errorf("slice medians %v: slice 0 is quiet, slice 3 is in the burst", sl)
	}
	if m := steadyP50(sl); m.Value > 0.11 || m.Unit != "ms" || len(m.Reps) != latSlices {
		t.Errorf("steadyP50 = %+v, want the quiet 0.100 ms", m)
	}
	if got := sliceP50s(samples[:3]); len(got) != 3 {
		t.Errorf("3 samples gave %d slices", len(got))
	}
}
