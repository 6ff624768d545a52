package check_test

import (
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/check/loglin"
	"repro/internal/history"
	"repro/internal/monitorapi"
	"repro/internal/spec"
	"repro/internal/trace"
)

// loadTailSeed reads the committed pathological B11 queue history: the seed-2
// workload whose dense 4-process interleaving sits on the Wing–Gong heavy
// cost tail (thousands of explored configurations for under two hundred
// events). It is exactly trace.RandomLinearizable(spec.Queue(), 2, 4, 96);
// the committed copy pins the bytes so a generator change cannot silently
// swap the regression workload. The file is read through the shared
// interchange codec (monitorapi.DecodeHistory) — the same entry point
// cmd/linverify uses — so the committed seed also pins the legacy
// bare-array form of the format. (External test package: monitorapi imports
// check, so an internal test here would be an import cycle.)
func loadTailSeed(t *testing.T) history.History {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "b11_queue_seed2.json"))
	if err != nil {
		t.Fatalf("reading committed seed: %v", err)
	}
	h, model, err := monitorapi.DecodeHistory(data)
	if err != nil {
		t.Fatalf("decoding committed seed: %v", err)
	}
	if model != "" {
		t.Fatalf("bare-array seed decoded with model %q, want none", model)
	}
	gen := trace.RandomLinearizable(spec.Queue(), 2, 4, 96)
	if len(h) != len(gen) {
		t.Fatalf("committed seed has %d events, generator produces %d — testdata out of sync", len(h), len(gen))
	}
	for i := range h {
		if h[i] != gen[i] {
			t.Fatalf("committed seed diverges from generator at event %d: %+v vs %+v", i, h[i], gen[i])
		}
	}
	return h
}

// TestFastTierHeavyTail is the heavy-tail regression: the log-linear tier
// must decide the committed pathological seed outright, agree with the exact
// search, beat it by the B13 explored-steps ratio, and stay inside an
// O(n log n) fine-grained-work envelope. All bounds are counter-based —
// nothing here measures wall-clock.
func TestFastTierHeavyTail(t *testing.T) {
	h := loadTailSeed(t)
	m := spec.Queue()

	r := check.Linearizable(m, h)
	d := loglin.Decide(m, h)

	if d.V != loglin.Yes && d.V != loglin.No {
		t.Fatalf("tier fell back (%v/%v) on the committed seed — it must decide it", d.V, d.Trigger)
	}
	if got, want := d.V == loglin.Yes, r.Ok; got != want {
		t.Fatalf("tier verdict %v disagrees with Wing–Gong Ok=%v", d.V, want)
	}
	if d.Steps <= 0 {
		t.Fatalf("tier reported no peel steps (Steps=%d)", d.Steps)
	}
	if ratio := float64(r.Explored) / float64(d.Steps); ratio < 50 {
		t.Fatalf("explored-steps ratio %.1f (wg %d / tier %d) below the 50x B13 floor",
			ratio, r.Explored, d.Steps)
	}

	// O(n log n) envelope on fine-grained comparisons: the deciders sort,
	// scan and binary-search, each charged into Work, so Work <= C*n*ceil(lg n)
	// with a small constant. C = 2 holds with ~4x headroom today.
	n := len(h)
	if bound := 2 * n * bits.Len(uint(n-1)); d.Work > bound {
		t.Fatalf("tier Work=%d exceeds O(n log n) envelope %d (n=%d)", d.Work, bound, n)
	}

	// Retention-mode incremental engine: cuts re-enumerate frontiers from the
	// events alone, so the tier's Yes is usable outright — the exact search
	// must never run.
	inc := check.NewIncremental(m, check.WithConfig(check.Config{Retain: true}))
	if v := inc.Append(h); v != check.Yes {
		t.Fatalf("retention incremental verdict %v, want Yes", v)
	}
	if st := inc.Stats(); st.FastTierHits == 0 || st.SegExplored != 0 {
		t.Fatalf("retention engine did not answer from the tier (hits=%d, explored=%d)",
			st.FastTierHits, st.SegExplored)
	}

	// Full-witness mode on a history with quiescent moments must discard the
	// tier's Yes (compaction needs the search's witness) and still answer
	// correctly through the exact search.
	fw := check.NewIncremental(m)
	if v := fw.Append(h); v != check.Yes {
		t.Fatalf("full-witness incremental verdict %v, want Yes", v)
	}
	if st := fw.Stats(); st.FastTierFallbacks == 0 {
		t.Fatalf("full-witness engine never consulted the tier: %+v", st)
	}
}
