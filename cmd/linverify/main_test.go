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
// LINVERIFY_TEST_MAIN set, it runs main with the arguments it was given.
func TestMain(m *testing.M) {
	if os.Getenv("LINVERIFY_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runLinverify re-executes the test binary as linverify with args and
// returns its exit code and combined output.
func runLinverify(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LINVERIFY_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("linverify %v: still running after a minute\n%s", args, out)
	}
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	default:
		t.Fatalf("linverify %v: %v", args, err)
		return 0, ""
	}
}

// TestVerdicts: the committed good and bad queue histories get their
// verdicts, exit codes and verdict lines from both the whole-history path
// and the streaming bounded-memory path.
func TestVerdicts(t *testing.T) {
	for _, mode := range [][]string{nil, {"-stream"}} {
		for _, tc := range []struct {
			file string
			code int
			want string
		}{
			{"testdata/queue-ok.json", 0, "linearizable with respect to queue"},
			{"testdata/queue-bad.json", 1, "NOT linearizable with respect to queue"},
		} {
			args := append(append([]string{}, mode...), tc.file)
			code, out := runLinverify(t, args...)
			if code != tc.code || !strings.HasPrefix(out, tc.want) {
				t.Errorf("linverify %v: exit %d, want %d and output starting %q\n%s", args, code, tc.code, tc.want, out)
			}
		}
	}
}

// TestRejected: usage errors exit 2 rather than reporting a verdict.
func TestRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-stream", "-witness", "testdata/queue-ok.json"},
		{"-model", "nosuch", "testdata/queue-ok.json"},
	} {
		if code, out := runLinverify(t, args...); code != 2 {
			t.Errorf("linverify %v: exit %d, want 2\n%s", args, code, out)
		}
	}
}
