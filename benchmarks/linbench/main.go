// Command linbench is the repository's end-to-end benchmark. It builds
// cmd/linmond from the checkout, drives the real binary over loopback TCP
// from one load-generator process with at most two connections, checks every
// verdict, and prints every metric by name with its unit. README.md beside
// this file says what is measured and why.
//
//	go run -C benchmarks/linbench . -workload wire_nq -seed 1 -seconds 20 -trace 0
//	go run -C benchmarks/linbench . -workload all -seed 1 -trace both -out set.json
//	go run -C benchmarks/linbench . -compare A.json B.json
//
// It runs from its own directory (that is what -C does) and only on Linux:
// it reads rusage and /proc of the daemon it starts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runLimit bounds one workload's run, builds excluded: past it every
// connection deadline has expired and the remaining operations fail.
const runLimit = 150 * time.Second

// hostInfo records the measuring host in every result file: numbers without
// the hardware they were taken on are noise.
type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func thisHost() hostInfo {
	return hostInfo{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()}
}

// result is one workload's outcome: the object printed as the last line of
// standard output, and one entry of a result file.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultSet is a result file (-out): what -compare reads.
type resultSet struct {
	Host      hostInfo           `json:"host"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     string             `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "all", "workload to run: wire_nq, durable_nq, search_frontier, objects_churn or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "how long one workload's run measures; stream lengths are derived from it")
	traceMode := flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
	out := flag.String("out", "", "also write the results, with a host block, to this file")
	compare := flag.Bool("compare", false, "compare two result files given as arguments against BENCHMARK.json's bounds")
	corrupt := flag.Bool("corrupt-expected", false, "self-test: flip one expected verdict; the run must then fail")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: linbench -compare A.json B.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		return 2
	}
	if *traceMode != "0" && *traceMode != "1" && *traceMode != "both" {
		fmt.Fprintf(os.Stderr, "-trace must be 0, 1 or both, got %q\n", *traceMode)
		return 2
	}
	if *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "-seconds must be positive; no positional arguments")
		return 2
	}
	if _, err := os.Stat(filepath.Join(repoRoot, "cmd", "linmond")); err != nil {
		fmt.Fprintln(os.Stderr, "linbench runs from its own directory inside the repository: go run -C benchmarks/linbench .")
		return 2
	}

	// Work directory, removed on every exit path; an interrupt also kills
	// whatever linmond is alive.
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	defer killAllLinmonds()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllLinmonds()
		os.RemoveAll(dir)
		os.Exit(130)
	}()

	bin, err := buildLinmond(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	set := resultSet{
		Host: thisHost(),
		Seed: *seed, Seconds: *seconds, Trace: *traceMode, Workloads: make(map[string]*result),
	}
	code := 0
	for _, w := range todo {
		res, err := runWorkload(w, bin, dir, *seed, *seconds, *traceMode, *corrupt)
		if err != nil {
			// The harness broke: no result line, non-zero exit.
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		set.Workloads[w.name] = res
		printTable(w.name, res)
		line, _ := json.Marshal(res.line())
		fmt.Printf("%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	if *out != "" {
		raw, _ := json.MarshalIndent(set, "", "  ")
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return code
}

// line strips the repetition values: the result line carries exactly value
// and unit per metric.
func (r *result) line() *result {
	l := *r
	l.Metrics = make(map[string]metric, len(r.Metrics))
	for k, m := range r.Metrics {
		l.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	return &l
}

// runWorkload generates w's input from the seed and runs it: the untraced
// run, the traced run, or both.
func runWorkload(w *workload, bin, dir string, seed int64, seconds float64, traceMode string, corrupt bool) (*result, error) {
	t0 := time.Now()
	sz := w.sizes(seconds)
	plan, err := w.gen(seed, sz)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	if corrupt {
		corruptExpected(plan)
	}
	res := &result{Metrics: make(map[string]metric)}
	var firstErr error
	quiet := newQuietGate()
	if traceMode != "1" {
		r := newRunner(w, plan, bin, dir, seconds, quiet)
		m, err := r.endToEnd()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			res.Metrics[k] = v
		}
		res.Attempted, res.Failed, firstErr = r.attempted, r.failed, r.firstErr
	}
	if traceMode != "0" {
		r := newRunner(w, plan, bin, dir, seconds, quiet)
		m, err := r.perLayer(genS, seed)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			res.Metrics[k] = v
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	res.Correct = res.Failed == 0
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failure: %v\n", w.name, firstErr)
	}
	return res, nil
}

// corruptExpected flips the expected verdict of one batch of the sat phase,
// for the self-test that a wrong verdict cannot pass.
func corruptExpected(p *plan) {
	s := p.sat[0][0]
	if s.firstNo == s.batches() {
		s.firstNo--
	} else {
		s.firstNo = s.batches()
	}
}

// printTable writes the human-readable form to standard error.
func printTable(name string, r *result) {
	fmt.Fprintf(os.Stderr, "%s: ops_attempted=%d ops_failed=%d correct=%v\n", name, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-44s %14.4f %s\n", k, m.Value, m.Unit)
	}
}
