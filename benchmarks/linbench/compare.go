package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchSpec is the part of BENCHMARK.json -compare needs: which metrics
// exist, which direction is better, and how far an end-to-end metric may
// worsen.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func loadSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// spread estimates how far a reported median would move from run to run, as
// a share of the median. One result file holds one run, so the estimate has
// to come from inside it: twice the median absolute deviation of the n
// repetitions behind the median (about their quartile distance, but not
// moved by the one outlier a median of three shrugs off — a single sat pass
// of search_frontier peaked at 79 MB between two at 48), divided by √n, the
// rate at which a median's standard error shrinks. 0 when the file holds no
// repetitions.
func spread(m metric) float64 {
	if len(m.Reps) < 2 || m.Value == 0 {
		return 0
	}
	dev := make([]float64, len(m.Reps))
	for i, v := range m.Reps {
		dev[i] = math.Abs(v - m.Value)
	}
	return 2 * median(dev) / math.Abs(m.Value) / math.Sqrt(float64(len(m.Reps)))
}

// compareFiles prints, per workload and metric, both values, the relative
// change from A to B and a verdict against the bound: regress when B is
// worse than A by more than the bound, unresolved when either file's own
// spread estimate is wider than the bound (so the two cannot be told apart),
// pass otherwise. Per-layer metrics have no bound and get no verdict. The
// exit code is 1 if anything regressed or stayed unresolved.
func compareFiles(pathA, pathB string) int {
	spec, err := loadSpec()
	var a, b *resultSet
	if err == nil {
		a, err = loadSet(pathA)
	}
	if err == nil {
		b, err = loadSet(pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("A: %s (seed %d, %g s, %d CPUs)\nB: %s (seed %d, %g s, %d CPUs)\n",
		pathA, a.Seed, a.Seconds, a.Host.CPUs, pathB, b.Seed, b.Seconds, b.Host.CPUs)
	bad := 0
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		fmt.Printf("\n%s  (A: %d/%d failed, B: %d/%d failed)\n", w.name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		fmt.Printf("  %-42s %14s %14s %9s  %s\n", "metric", "A", "B", "change", "verdict")
		for i, ms := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
			ma, okA := ra.Metrics[ms.Name]
			mb, okB := rb.Metrics[ms.Name]
			if !okA || !okB {
				continue
			}
			change := 0.0
			if ma.Value != 0 {
				change = (mb.Value - ma.Value) / math.Abs(ma.Value)
			}
			verdict := ""
			if i < len(spec.EndToEnd) {
				worse := change
				if ms.Better == "higher" {
					worse = -change
				}
				switch {
				case spread(ma) > ms.Bound || spread(mb) > ms.Bound:
					verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% > bound %.0f%%)", 100*spread(ma), 100*spread(mb), 100*ms.Bound)
					bad++
				case worse > ms.Bound:
					verdict = fmt.Sprintf("regress (bound %.0f%%)", 100*ms.Bound)
					bad++
				default:
					verdict = fmt.Sprintf("pass (bound %.0f%%)", 100*ms.Bound)
				}
			}
			fmt.Printf("  %-42s %14.4f %14.4f %+8.2f%%  %s\n", ms.Name, ma.Value, mb.Value, 100*change, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d end-to-end metrics regressed or are unresolved\n", bad)
		return 1
	}
	fmt.Println("\nno regress, no unresolved")
	return 0
}
