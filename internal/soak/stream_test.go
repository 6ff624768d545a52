package soak

import (
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// corpusTraces pins the expected verdict of every envelope in
// testdata/traces; TestReplayCorpus replays each through an in-process
// linmond and cross-checks against a local monitor.
var corpusTraces = []struct {
	file    string
	verdict check.Verdict
}{
	{"etcd-register.json", check.No},
	{"redis-queue.json", check.Yes},
	{"zk-set.json", check.Yes},
}

func tracePath(t *testing.T, file string) string {
	t.Helper()
	return filepath.Join("..", "..", "testdata", "traces", file)
}

func TestReplayCorpus(t *testing.T) {
	for _, tc := range corpusTraces {
		t.Run(tc.file, func(t *testing.T) {
			res := RunReplay(tracePath(t, tc.file), "", StreamConfig{Batch: 8})
			if !res.Ok() {
				t.Fatalf("replay failed: %+v", res)
			}
			if res.Streamed != tc.verdict {
				t.Fatalf("verdict %v, want %v (result %+v)", res.Streamed, tc.verdict, res)
			}
			if res.Events == 0 || res.Batches == 0 {
				t.Fatalf("replay streamed nothing: %+v", res)
			}
		})
	}
}

// TestReplayPaced replays at 2000x the recorded pace: the ~108ms etcd trace
// compresses to ~54us of schedule, enough to prove the pacing path runs
// without slowing the suite, and the wall clock must at least not finish
// before the compressed schedule says it can.
func TestReplayPaced(t *testing.T) {
	res := RunReplay(tracePath(t, "etcd-register.json"), "", StreamConfig{Speed: 2000, Batch: 4})
	if !res.Ok() {
		t.Fatalf("replay failed: %+v", res)
	}
	if res.TraceNs == 0 {
		t.Fatal("etcd trace carries timestamps; TraceNs must be recorded")
	}
	// The last batch's first event sits before the end of the trace, so the
	// strict bound is the schedule up to that point; half the span is a safe
	// floor that still proves sleeping happened.
	if min := res.TraceNs / 2000 / 2; res.WallNs < min {
		t.Fatalf("replay finished in %dns, faster than the compressed schedule floor %dns", res.WallNs, min)
	}
}

// TestReplayModelOverride verifies the explicit model wins over the
// envelope's and an unknown model fails loudly.
func TestReplayModelOverride(t *testing.T) {
	res := RunReplay(tracePath(t, "zk-set.json"), "nosuch", StreamConfig{})
	if res.Err == "" || res.Ok() {
		t.Fatalf("unknown model must fail, got %+v", res)
	}
}

func TestReplayMissingFile(t *testing.T) {
	res := RunReplay(tracePath(t, "no-such-trace.json"), "", StreamConfig{})
	if res.Err == "" {
		t.Fatal("missing file must fail")
	}
}

// TestStreamCrashRestart runs the crash-restart leg on an in-memory history:
// 280 events in 16-event batches restart the in-process server four times,
// two of them with a failed drain checkpoint. The clean and the mutated
// stream must both come out verdict-identical to the local monitor with
// every event applied exactly once.
func TestStreamCrashRestart(t *testing.T) {
	m := spec.Queue()
	clean := trace.RandomLinearizable(m, 0, 4, 4*60)
	for name, h := range map[string]history.History{
		"clean":   clean,
		"mutated": trace.Mutate(clean, 8),
	} {
		t.Run(name, func(t *testing.T) {
			res := Stream(m, Slice(h), StreamConfig{
				Tenant: "soak", Object: name, Batch: 16, CrashEvery: 4,
				Monitor: check.Config{Retain: true},
			})
			if !res.Ok() {
				t.Fatalf("crash-restart run not ok: %s (%+v)", res.Fault(), res)
			}
			if res.Restarts != 4 || res.Events != len(h) || res.Applied != len(h) {
				t.Fatalf("restarts %d, events %d, applied %d; want 4, %d, %d", res.Restarts, res.Events, res.Applied, len(h), len(h))
			}
		})
	}
}

// TestStreamCrashNeedsInProcess: the crash leg restarts its own server, so
// it refuses an external address before dialling it.
func TestStreamCrashNeedsInProcess(t *testing.T) {
	res := Stream(spec.Queue(), Slice(nil), StreamConfig{Addr: "127.0.0.1:1", CrashEvery: 4})
	if res.Err == "" {
		t.Fatalf("crash leg against an external address must fail, got %+v", res)
	}
}
