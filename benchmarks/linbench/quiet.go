package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The hosts this benchmark runs on are small shared virtual machines, and
// the disturbance that matters there comes in bursts during which every
// instruction costs 25–55 % more: a probe log of the otherwise idle
// calibration host shows 8 s at +27–47 %, and two search_frontier runs a
// minute apart measured linmond's CPU per event at 408 and 634 us on the same
// kind of input. A burst as long as a repetition cannot be averaged away
// inside a run, so each repetition first checks that the host is as fast as
// it has been: a fixed probe of CPU-and-cache work is timed, and while it
// runs more than quietTolerance slower than the fastest probe this checkout
// has seen, the repetition waits — up to quietBudget per run, after which it
// proceeds regardless and the numbers show the burst.

const (
	quietTolerance = 1.10
	quietBudget    = 10 * time.Second
	quietPause     = 200 * time.Millisecond
)

var probeBuf = make([]uint64, 32<<10) // 256 KiB: past L1, inside L2

// probeNs times the probe three times and returns the fastest.
func probeNs() int64 {
	best := int64(0)
	for try := 0; try < 3; try++ {
		t0 := time.Now()
		h := uint64(14695981039346656037)
		for pass := 0; pass < 24; pass++ {
			for i, v := range probeBuf {
				h = (h ^ v) * 1099511628211
				probeBuf[i] = h
			}
		}
		if ns := time.Since(t0).Nanoseconds(); best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// quietGate holds a run's waiting budget and the checkout's fastest probe,
// which persists in the work directory across runs. A nil gate never waits.
type quietGate struct {
	path   string
	ref    int64
	budget time.Duration
	waited time.Duration
}

func newQuietGate() *quietGate {
	g := &quietGate{path: filepath.Join(workRoot, "quiet-probe-ns"), budget: quietBudget}
	if raw, err := os.ReadFile(g.path); err == nil {
		g.ref, _ = strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	}
	return g
}

// wait returns once the host probes quiet or the run's budget is spent.
func (g *quietGate) wait() {
	if g == nil {
		return
	}
	for {
		ns := probeNs()
		if g.ref == 0 || ns < g.ref {
			g.ref = ns
			// Losing this write only costs the next run its reference.
			_ = os.WriteFile(g.path, []byte(strconv.FormatInt(ns, 10)+"\n"), 0o644)
		}
		if float64(ns) <= quietTolerance*float64(g.ref) || g.budget < quietPause {
			return
		}
		fmt.Fprintf(os.Stderr, "linbench: host probes %.0f%% slower than its best, waiting\n", 100*(float64(ns)/float64(g.ref)-1))
		time.Sleep(quietPause)
		g.budget -= quietPause
		g.waited += quietPause
	}
}
