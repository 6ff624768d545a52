package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command: re-executed with
// EXPERIMENTS_TEST_MAIN set, it runs main with the arguments it was given.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runExperiments re-executes the test binary as experiments with args and
// returns its exit code and combined output.
func runExperiments(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("experiments %v: still running after two minutes\n%s", args, out)
	}
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	default:
		t.Fatalf("experiments %v: %v", args, err)
		return 0, ""
	}
}

// TestAllPass: with no flags every experiment runs and every paper claim
// checks out.
func TestAllPass(t *testing.T) {
	code, out := runExperiments(t)
	if code != 0 || !strings.HasSuffix(out, "all 39 checks passed\n") {
		t.Fatalf("experiments: exit %d, want 0 ending %q\n%s", code, "all 39 checks passed", out)
	}
}

// TestList: -list prints the experiment names, one a line.
func TestList(t *testing.T) {
	code, out := runExperiments(t, "-list")
	names := strings.Fields(out)
	if code != 0 || len(names) == 0 || names[0] != "fig1" {
		t.Fatalf("experiments -list: exit %d, want 0 and names starting fig1\n%s", code, out)
	}
	for _, want := range []string{"fig4", "decoupled", "producer"} {
		if !strings.Contains("\n"+out, "\n"+want+"\n") {
			t.Errorf("experiments -list does not name %q\n%s", want, out)
		}
	}
}

// TestUnknownExperiment: -run with a name that does not exist is a usage
// error.
func TestUnknownExperiment(t *testing.T) {
	if code, out := runExperiments(t, "-run", "nosuch"); code != 2 {
		t.Fatalf("experiments -run nosuch: exit %d, want 2\n%s", code, out)
	}
}
