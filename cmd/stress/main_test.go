package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/monitorserver"
)

// TestMain lets the test binary stand in for the command: re-executed with
// STRESS_TEST_MAIN set, it runs main with the arguments it was given.
func TestMain(m *testing.M) {
	if os.Getenv("STRESS_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runStress re-executes the test binary as stress with args and returns its
// exit code and combined output, failing the test if it outlives timeout.
func runStress(t *testing.T, timeout time.Duration, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "STRESS_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("stress %v: still running after %v\n%s", args, timeout, out)
	}
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	default:
		t.Fatalf("stress %v: %v", args, err)
		return 0, ""
	}
}

// TestModes runs one small soak per mode — decoupled, net against a server
// this test process serves, crash-restart against the in-process durable
// server, and a corpus replay — each of which must finish clean (exit 0)
// and print its mode's verdict line.
func TestModes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := monitorserver.Serve(ln, monitorserver.Options{Logf: t.Logf})
	defer srv.Close()
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"decoupled", []string{"-model", "queue", "-decoupled", "-ops", "40", "-seeds", "1"},
			"runs with ERROR report: 0/1"},
		{"net", []string{"-net", "-addr", srv.Addr().String(), "-model", "queue", "-ops", "40", "-seeds", "2", "-retain"},
			"sessions: 2 ok"},
		// 16-event batches so the 280-event stream spans four restarts.
		{"crash", []string{"-crash-every", "4", "-model", "queue", "-ops", "60", "-seeds", "1", "-retain", "-netbatch", "16"},
			"across 4 forced restarts"},
		{"replay", []string{"-replay", "../../testdata/traces/redis-queue.json"},
			"verdict: streamed=Yes local=Yes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runStress(t, 2*time.Minute, tc.args...)
			if code != 0 || !strings.Contains(out, tc.want) {
				t.Fatalf("stress %v: exit %d, want 0 and %q in the output\n%s", tc.args, code, tc.want, out)
			}
		})
	}
}

// TestRejectedFlags: flag combinations a mode cannot honour, and flags the
// command does not have, are configuration errors (exit 2) rather than
// silently ignored.
func TestRejectedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-commitcuts", "-decoupled"},             // commit cuts need -retain
		{"-workers", "4", "-decoupled"},           // a pool needs -retain
		{"-net", "-crash-every", "4"},             // crash mode runs its own server
		{"-decoupled", "-pipeline"},               // no such flag
		{"-replay", "x.json", "-fault", "mutate"}, // replay streams a recorded trace
	} {
		if code, out := runStress(t, time.Minute, args...); code != 2 {
			t.Errorf("stress %v: exit %d, want 2\n%s", args, code, out)
		}
	}
}
