package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command: re-executed with
// PERFGATE_TEST_MAIN set, it runs main with the arguments it was given.
func TestMain(m *testing.M) {
	if os.Getenv("PERFGATE_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runPerfgate re-executes the test binary as perfgate with args and returns
// its exit code and combined output.
func runPerfgate(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PERFGATE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("perfgate %v: still running after five minutes\n%s", args, out)
	}
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	default:
		t.Fatalf("perfgate %v: %v", args, err)
		return 0, ""
	}
}

// TestGates runs every gate at reduced soak scale and checks the JSON record
// and the results index: every gate passes, and -results indexes the new
// record next to an old one, so records from earlier perfgate versions stay
// readable. B8 runs at its default size and ratio bound. B11 skips itself
// below 4 CPUs; where it runs, -minscale 0 keeps its row without gating on
// it, because the test suite also runs at GOMAXPROCS=1, where four workers
// cannot beat one (CI's perf job gates B11 at its real bound).
func TestGates(t *testing.T) {
	tmp := t.TempDir()
	results := filepath.Join(tmp, "results")
	if err := os.Mkdir(results, 0o755); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile("../../benchmarks/results/BENCH_PR3.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(results, "BENCH_PR3.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(tmp, "gates.json")
	code, log := runPerfgate(t, "-soakops", "2000", "-b12ops", "2000", "-b14ops", "2000",
		"-minscale", "0", "-out", out, "-results", results)
	if code != 0 || !strings.Contains(log, "perf gates passed") {
		t.Fatalf("perfgate: exit %d, want 0 and %q\n%s", code, "perf gates passed", log)
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Gates []gateEntry `json:"gates"`
		Pass  bool        `json:"pass"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Pass {
		t.Errorf("record says pass=false")
	}
	rows := map[string]int{}
	for _, g := range rec.Gates {
		name := g.Gate
		if strings.HasPrefix(name, "b10:") {
			name = "b10"
		}
		rows[name]++
		if g.Status != "pass" && !(g.Gate == "b11" && g.Status == "skip") {
			t.Errorf("gate %s: status %s", g.Gate, g.Status)
		}
	}
	for _, name := range []string{"b8", "b9", "b11", "b12", "b12-control", "b13", "b14"} {
		if rows[name] != 1 {
			t.Errorf("%d gates[] rows for %s, want 1", rows[name], name)
		}
	}
	if rows["b10"] == 0 {
		t.Errorf("no b10 gates[] rows")
	}

	index, err := os.ReadFile(filepath.Join(results, "index.md"))
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, line := range strings.Split(string(index), "\n") {
		if strings.HasPrefix(line, "| [") {
			records++
		}
	}
	if records != 2 || !strings.Contains(string(index), "| [BENCH_PR3.json](BENCH_PR3.json) |") {
		t.Errorf("index.md has %d record rows, want BENCH_PR3.json and the new record\n%s", records, index)
	}
}
