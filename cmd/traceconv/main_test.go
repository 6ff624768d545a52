package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command: re-executed with
// TRACECONV_TEST_MAIN set, it runs main with the arguments it was given.
func TestMain(m *testing.M) {
	if os.Getenv("TRACECONV_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runTraceconv re-executes the test binary as traceconv with args and
// returns its exit code, stdout and stderr.
func runTraceconv(t *testing.T, args ...string) (int, []byte, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACECONV_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("traceconv %v: still running after a minute\n%s", args, stderr.String())
	}
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.Bytes(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.Bytes(), stderr.String()
	default:
		t.Fatalf("traceconv %v: %v", args, err)
		return 0, nil, ""
	}
}

const traces = "../../testdata/traces"

// TestCorpus: converting the committed raw traces reproduces the committed
// envelopes byte for byte, on stdout and through -o.
func TestCorpus(t *testing.T) {
	for _, tc := range []struct{ from, model, raw, want string }{
		{"jepsen", "register", "etcd-register.jepsen.jsonl", "etcd-register.json"},
		{"clientlog", "queue", "redis-queue.clientlog.csv", "redis-queue.json"},
	} {
		want, err := os.ReadFile(filepath.Join(traces, tc.want))
		if err != nil {
			t.Fatal(err)
		}
		raw := filepath.Join(traces, tc.raw)
		code, out, stderr := runTraceconv(t, "-from", tc.from, "-model", tc.model, raw)
		if code != 0 || !bytes.Equal(out, want) {
			t.Errorf("traceconv %s: exit %d, want 0 and the bytes of %s\n%s", tc.raw, code, tc.want, stderr)
		}
		path := filepath.Join(t.TempDir(), tc.want)
		if code, _, stderr := runTraceconv(t, "-from", tc.from, "-model", tc.model, "-o", path, raw); code != 0 {
			t.Fatalf("traceconv -o %s: exit %d\n%s", path, code, stderr)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("traceconv -o wrote something other than %s (%v)", tc.want, err)
		}
	}
}

// TestRejected: usage errors exit 2 without converting anything.
func TestRejected(t *testing.T) {
	raw := filepath.Join(traces, "etcd-register.jepsen.jsonl")
	for _, args := range [][]string{
		{"-from", "jepsen", raw},                       // no -model
		{"-from", "nosuch", "-model", "register", raw}, // unknown format
	} {
		if code, out, stderr := runTraceconv(t, args...); code != 2 || len(out) != 0 {
			t.Errorf("traceconv %v: exit %d with %d bytes out, want 2 and none\n%s", args, code, len(out), stderr)
		}
	}
}
