package main

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

// TestMain lets the test binary stand in for the daemon: re-executed with
// LINMOND_TEST_DAEMON set, it runs main with the arguments it was given.
func TestMain(m *testing.M) {
	if os.Getenv("LINMOND_TEST_DAEMON") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSigtermOnListeningLine sends SIGTERM the moment the daemon logs that it
// is listening, which is what a supervisor (and linbench) does. The handler
// must already be installed: the daemon has to log "shutting down", drain
// through srv.Close and exit 0, not die by the signal's default action.
// Repeated, because the window between the log line and signal.Notify was a
// few microseconds wide.
func TestSigtermOnListeningLine(t *testing.T) {
	for i := 0; i < 20; i++ {
		cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0")
		cmd.Env = append(os.Environ(), "LINMOND_TEST_DAEMON=1")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var listening, shutdown bool
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			switch line := sc.Text(); {
			case strings.Contains(line, "listening on"):
				listening = true
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
			case strings.Contains(line, "shutting down"):
				shutdown = true
			}
		}
		err = cmd.Wait()
		if !listening {
			t.Fatalf("run %d: daemon never logged its listening line (exit: %v)", i, err)
		}
		if err != nil || !shutdown {
			t.Fatalf("run %d: SIGTERM on the listening line: exit %v, logged shutdown=%v; want exit 0 through srv.Close", i, err, shutdown)
		}
	}
}
