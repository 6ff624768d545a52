package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// ckptConfigs is the configuration sweep of the restore differential: full
// witness, plain retention, commit-point cuts, and a parallel engine.
func ckptConfigs() []Config {
	return []Config{
		{},
		{Retain: true, Retention: RetentionPolicy{GCBatch: 8}},
		{Retain: true, Retention: RetentionPolicy{GCBatch: 8, CommitCuts: true}},
		{Retain: true, Retention: RetentionPolicy{GCBatch: 8}, Parallelism: 2},
	}
}

// outcomeStats masks the counters a restore legitimately perturbs. The
// persistent segment searches are not checkpointed, so the effort spent
// rebuilding them (and the fan-out rounds that run the rebuilds) differs from
// the uninterrupted run; everything outcome-shaped must match exactly under
// retention. The full-witness monitor keeps one unbounded search whose resume
// state also steers when it falls back to a whole-history check, so there the
// contract is verdict equality plus the ingest counters only. On a refuted
// monitor the resource gauges are refresh-timing artifacts (sticky appends
// stop refreshing them; restore refreshes once), so they are masked too.
func outcomeStats(s IncStats, retain, refuted bool) IncStats {
	s.SearchResumes, s.SearchRebuilds, s.SegExplored, s.ParallelRounds = 0, 0, 0, 0
	s.RetainedBytes = 0 // approximate gauge
	if !retain {
		s.SegChecks, s.SegYes, s.MaxSegment = 0, 0, 0
		s.Fallbacks, s.Compactions = 0, 0
		s.FastTierHits, s.FastTierFallbacks, s.TierAbstain = 0, 0, TierAbstentions{}
	}
	if refuted {
		s.RetainedEvents, s.FrontierStates = 0, 0
	}
	return s
}

// roundTripImage checkpoints inc, pushes the image through JSON (the form the
// ckpt envelope persists), verifies re-checkpointing is byte-deterministic,
// and restores a fresh monitor from the decoded bytes.
func roundTripImage(t *testing.T, inc *Incremental) *Incremental {
	t.Helper()
	img, err := inc.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	raw, err := json.Marshal(img)
	if err != nil {
		t.Fatalf("marshal image: %v", err)
	}
	img2, err := inc.Checkpoint()
	if err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	raw2, err := json.Marshal(img2)
	if err != nil {
		t.Fatalf("marshal second image: %v", err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("re-checkpointing an idle monitor is not byte-deterministic:\n%s\nvs\n%s", raw, raw2)
	}
	var dec MonitorImage
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatalf("unmarshal image: %v", err)
	}
	restored, err := RestoreIncremental(&dec)
	if err != nil {
		t.Fatalf("RestoreIncremental: %v", err)
	}
	return restored
}

// TestCheckpointRestoreDifferential: a monitor checkpointed at a random
// append boundary and restored from the serialised image stays verdict-
// identical to the uninterrupted reference on every subsequent delta, across
// models, configurations and clean/mutated streams — and its outcome
// counters match under retention.
func TestCheckpointRestoreDifferential(t *testing.T) {
	models := []spec.Model{
		spec.Queue(), spec.Stack(), spec.Set(), spec.PQueue(), spec.Counter(), spec.Register(0),
	}
	for _, m := range models {
		for ci, cfg := range ckptConfigs() {
			for seed := int64(1); seed <= 5; seed++ {
				h := trace.RandomLinearizable(m, seed+int64(ci)*97, 3, 36)
				if seed%2 == 0 {
					h = trace.Mutate(h, seed*31)
				}
				rng := rand.New(rand.NewSource(seed*13 + int64(ci)))
				deltas := chunks(h, rng)
				ref := NewIncremental(m, WithConfig(cfg))
				cur := NewIncremental(m, WithConfig(cfg))
				cut := rng.Intn(len(deltas) + 1)
				for i, d := range deltas {
					if i == cut {
						cur = roundTripImage(t, cur)
					}
					want := ref.Append(d)
					sameResidencyAsWalk(t, ref, fmt.Sprintf("%s cfg=%d seed=%d delta %d", m.Name(), ci, seed, i))
					got := cur.Append(d)
					if got != want {
						t.Fatalf("%s cfg=%d seed=%d: delta %d after restore at %d: verdict %v, reference %v",
							m.Name(), ci, seed, i, cut, got, want)
					}
				}
				if cut == len(deltas) {
					cur = roundTripImage(t, cur)
				}
				if cur.Verdict() != ref.Verdict() {
					t.Fatalf("%s cfg=%d seed=%d: final verdict %v, reference %v",
						m.Name(), ci, seed, cur.Verdict(), ref.Verdict())
				}
				if (cur.Err() != nil) != (ref.Err() != nil) {
					t.Fatalf("%s cfg=%d seed=%d: error %v, reference %v",
						m.Name(), ci, seed, cur.Err(), ref.Err())
				}
				refuted := ref.Verdict() == No
				got, want := outcomeStats(cur.Stats(), cfg.Retain, refuted), outcomeStats(ref.Stats(), cfg.Retain, refuted)
				if got != want {
					t.Fatalf("%s cfg=%d seed=%d restore at %d: outcome stats diverge\ngot:  %+v\nwant: %+v",
						m.Name(), ci, seed, cut, got, want)
				}
			}
		}
	}
}

// TestCheckpointEveryBoundary: for one commit-cut stream, restoring at EVERY
// append boundary reproduces the reference verdict on every prefix — the
// "any prefix of checkpoint attempts" half of the recovery contract at the
// monitor level.
func TestCheckpointEveryBoundary(t *testing.T) {
	m := spec.Queue()
	cfg := Config{Retain: true, Retention: RetentionPolicy{GCBatch: 4, CommitCuts: true}}
	h := trace.RandomLinearizable(m, 42, 3, 30)
	deltas := chunks(h, rand.New(rand.NewSource(7)))

	ref := NewIncremental(m, WithConfig(cfg))
	want := make([]Verdict, len(deltas))
	for i, d := range deltas {
		want[i] = ref.Append(d)
		sameResidencyAsWalk(t, ref, fmt.Sprintf("delta %d", i))
	}
	for cut := 0; cut <= len(deltas); cut++ {
		cur := NewIncremental(m, WithConfig(cfg))
		for i, d := range deltas {
			if i == cut {
				cur = roundTripImage(t, cur)
			}
			if got := cur.Append(d); got != want[i] {
				t.Fatalf("restore at %d: delta %d verdict %v, reference %v", cut, i, got, want[i])
			}
		}
	}
}

// TestCheckpointRefutedMonitor: a refuted monitor survives the round trip
// with its verdict, error and witness window intact, and stays sticky. It
// checks two refutations: a non-linearizable history, whose Err is nil, and
// an ill-formed one, whose Err says why. The first is the first mutation,
// by seed, that refutes: most mutations of one linearizable history stay
// linearizable, so a fixed seed is not enough.
func TestCheckpointRefutedMonitor(t *testing.T) {
	m := spec.Queue()
	cfg := WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 8}})
	base := trace.RandomLinearizable(m, 8, 3, 30)
	var refuted *Incremental
	for seed := int64(0); seed < 200 && refuted == nil; seed++ {
		if inc := NewIncremental(m, cfg); inc.Append(trace.Mutate(base, seed)) == No {
			refuted = inc
		}
	}
	if refuted == nil {
		t.Fatal("no mutation seed in 0..199 refutes the base history")
	}
	illFormed := NewIncremental(m, cfg)
	stray := history.Event{Kind: history.Return, Proc: 2, ID: 1 << 40,
		Op: spec.Operation{Method: spec.MethodDeq, Uniq: 1 << 40}, Res: spec.EmptyResp()}
	if v := illFormed.Append(append(slices.Clone(base[:6]), stray)); v != No || illFormed.Err() == nil {
		t.Fatalf("a return without its invocation: verdict %v, err %v; want No with an error", v, illFormed.Err())
	}
	for _, inc := range []*Incremental{refuted, illFormed} {
		restored := roundTripImage(t, inc)
		if restored.Verdict() != No {
			t.Fatalf("restored verdict %v, want No", restored.Verdict())
		}
		if fmt.Sprint(restored.Err()) != fmt.Sprint(inc.Err()) {
			t.Fatalf("restored error %v, want %v", restored.Err(), inc.Err())
		}
		if len(restored.History()) != len(inc.History()) {
			t.Fatalf("restored witness window %d events, want %d", len(restored.History()), len(inc.History()))
		}
		if v := restored.Append(trace.RandomLinearizable(m, 9, 3, 4)); v != No {
			t.Fatalf("restored refuted monitor answered %v to an extension, want sticky No", v)
		}
	}
}

// withRetiredFields re-adds to inc's serialised image what images carried
// before the collector came to always cut at the frontier: a "marks" entry at
// the committed cut holding the frontier's encodings, and a
// config.retention.keep_events knob. It returns the image decoded back.
func withRetiredFields(t *testing.T, inc *Incremental) *MonitorImage {
	t.Helper()
	img, err := inc.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	raw, err := json.Marshal(img)
	if err != nil {
		t.Fatalf("marshal image: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("unmarshal image as a map: %v", err)
	}
	doc["marks"] = []any{map[string]any{"idx": img.CutIdx, "states": img.Frontier}}
	doc["config"].(map[string]any)["retention"].(map[string]any)["keep_events"] = 16
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatalf("marshal edited image: %v", err)
	}
	var dec MonitorImage
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatalf("decode edited image: %v", err)
	}
	return &dec
}

// TestRestoreImageWithRetiredFields: an image carrying the retired cut marks
// and keep_events knob decodes with both ignored, restores, and the restored
// monitor stays verdict- and outcome-stat-identical to the uninterrupted one
// on every further append.
func TestRestoreImageWithRetiredFields(t *testing.T) {
	m := spec.Queue()
	cfg := Config{Retain: true, Retention: RetentionPolicy{GCBatch: 8, CommitCuts: true}}
	collected := false
	for seed := int64(1); seed <= 4; seed++ {
		for _, h := range []history.History{
			trace.NeverQuiescent(m, seed, 3, 60),
			trace.Mutate(trace.RandomLinearizable(m, seed, 3, 36), seed*31),
		} {
			deltas := chunks(h, rand.New(rand.NewSource(seed)))
			mid := len(deltas) / 2
			ref := NewIncremental(m, WithConfig(cfg))
			for _, d := range deltas[:mid] {
				ref.Append(d)
			}
			img := withRetiredFields(t, ref)
			if img.Config != cfg {
				t.Fatalf("seed %d: decoded config %+v, want %+v", seed, img.Config, cfg)
			}
			collected = collected || (img.HBase > 0 && img.CutIdx > 0)
			cur, err := RestoreIncremental(img)
			if err != nil {
				t.Fatalf("seed %d: RestoreIncremental: %v", seed, err)
			}
			for i, d := range deltas[mid:] {
				if got, want := cur.Append(d), ref.Append(d); got != want {
					t.Fatalf("seed %d: delta %d after restore: verdict %v, reference %v", seed, mid+i, got, want)
				}
			}
			refuted := ref.Verdict() == No
			if got, want := outcomeStats(cur.Stats(), true, refuted), outcomeStats(ref.Stats(), true, refuted); got != want {
				t.Fatalf("seed %d: outcome stats diverge\ngot:  %+v\nwant: %+v", seed, got, want)
			}
		}
	}
	if !collected {
		t.Fatal("no image was taken past a GC with a committed cut; the marks were never meaningful")
	}
}

// TestRestoreRejectsCorruptImages: structurally impossible images fail with
// an error — never a silently wrong monitor.
func TestRestoreRejectsCorruptImages(t *testing.T) {
	m := spec.Queue()
	build := func() *MonitorImage {
		inc := NewIncremental(m, WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 4, CommitCuts: true}}))
		inc.Append(trace.RandomLinearizable(m, 3, 3, 24))
		img, err := inc.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		return img
	}
	cases := []struct {
		name string
		mut  func(*MonitorImage)
	}{
		{"version", func(i *MonitorImage) { i.Version = 99 }},
		{"model", func(i *MonitorImage) { i.Model = "nope" }},
		{"config", func(i *MonitorImage) { i.Config.Parallelism = -1 }},
		{"empty frontier", func(i *MonitorImage) { i.Frontier = nil }},
		{"foreign state", func(i *MonitorImage) { i.Frontier = []string{"s:1"} }},
		{"corrupt state", func(i *MonitorImage) { i.Frontier = []string{"q:1,x"} }},
		{"cut idx", func(i *MonitorImage) { i.CutIdx = len(i.Window) + 1 }},
		{"negative base", func(i *MonitorImage) { i.HBase = -1 }},
		{"boundary range", func(i *MonitorImage) { i.Cuts = []int{len(i.Window) + 5} }},
		{"event kind", func(i *MonitorImage) { i.Window[0].Kind = 7 }},
		{"verdict", func(i *MonitorImage) { i.Verdict = 0 }},
		{"planner dropped", func(i *MonitorImage) { i.Planner = nil }},
		{"planner dup op", func(i *MonitorImage) {
			if i.Planner == nil || len(i.Planner.Open) == 0 {
				i.Planner = &PlannerImage{Open: []PlannedOpImage{{ID: 1}, {ID: 1}}}
			} else {
				i.Planner.Open = append(i.Planner.Open, i.Planner.Open[0])
			}
		}},
		{"dead arity", func(i *MonitorImage) { i.Dead = make([]bool, len(i.Frontier)+2) }},
		{"window replay", func(i *MonitorImage) {
			// Two invocations by one process with no return between them.
			ev := i.Window[0]
			ev.Kind = 1
			i.Window = []EventImage{ev, ev}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := build()
			tc.mut(img)
			if _, err := RestoreIncremental(img); err == nil {
				t.Fatalf("corrupt image (%s) restored without error", tc.name)
			}
		})
	}
	// The unmutated image restores cleanly (the table above is meaningful).
	if _, err := RestoreIncremental(build()); err != nil {
		t.Fatalf("pristine image: %v", err)
	}
}

// TestShardsAddMonitor: a restored monitor joins a shard set with its cached
// verdict intact.
func TestShardsAddMonitor(t *testing.T) {
	m := spec.Queue()
	bad := NewIncremental(m)
	if bad.Append(trace.Mutate(trace.RandomLinearizable(m, 4, 3, 30), 77)) != No {
		t.Skip("mutation did not refute; seed drifted")
	}
	restored := roundTripImage(t, bad)
	s := NewShards(nil, 1)
	idx := s.AddMonitor(restored)
	if got := s.Verdict(); got != No {
		t.Fatalf("shard set verdict %v after adding refuted monitor at %d, want No", got, idx)
	}
}

// FuzzCheckpointRestore is the nightly differential fuzzer: random model,
// configuration, stream (clean or mutated) and checkpoint boundary — the
// restored monitor must stay verdict-identical to the uninterrupted one on
// every delta, and outcome-stat-identical under retention.
func FuzzCheckpointRestore(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(3))
	f.Add(int64(2), uint8(1), uint8(1), uint8(9))
	f.Add(int64(17), uint8(2), uint8(2), uint8(0))
	f.Add(int64(29), uint8(3), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, modelSel, cfgSel, cutSel uint8) {
		models := []spec.Model{spec.Queue(), spec.Stack(), spec.Set(), spec.PQueue()}
		m := models[int(modelSel)%len(models)]
		cfgs := ckptConfigs()
		cfg := cfgs[int(cfgSel)%len(cfgs)]

		h := trace.RandomLinearizable(m, seed, 3, 8+int(cutSel)%28)
		if seed%2 == 0 {
			h = trace.Mutate(h, seed*31)
		}
		rng := rand.New(rand.NewSource(seed * 7))
		deltas := chunks(h, rng)
		cut := int(cutSel) % (len(deltas) + 1)

		ref := NewIncremental(m, WithConfig(cfg))
		cur := NewIncremental(m, WithConfig(cfg))
		for i, d := range deltas {
			if i == cut {
				cur = roundTripImage(t, cur)
			}
			want := ref.Append(d)
			if got := cur.Append(d); got != want {
				t.Fatalf("%s cfg{retain:%v cc:%v par:%d} seed=%d cut=%d: delta %d verdict %v, reference %v",
					m.Name(), cfg.Retain, cfg.Retention.CommitCuts, cfg.Parallelism, seed, cut, i, got, want)
			}
		}
		refuted := ref.Verdict() == No
		if got, want := outcomeStats(cur.Stats(), cfg.Retain, refuted), outcomeStats(ref.Stats(), cfg.Retain, refuted); got != want {
			t.Fatalf("%s seed=%d cut=%d: outcome stats diverge\ngot:  %+v\nwant: %+v", m.Name(), seed, cut, got, want)
		}
	})
}
