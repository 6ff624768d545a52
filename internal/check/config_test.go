package check_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/spec"
	"repro/internal/trace"
)

// optionEquivalent enumerates pairs of constructions that must yield the
// same monitor: one through the legacy With* options, one through the
// equivalent Config. The suite drives both through identical streams and
// demands bit-identical observable state — per-append verdicts, IncStats,
// the retained window, the frontier.
type optionEquivalent struct {
	name string
	opts []check.IncOption
	cfg  check.Config
}

func equivalences() []optionEquivalent {
	return []optionEquivalent{
		{"default", nil, check.Config{}},
		{"retention", []check.IncOption{check.WithRetention(check.RetentionPolicy{})},
			check.Config{Retain: true}},
		{"retention-tight", []check.IncOption{check.WithRetention(check.RetentionPolicy{GCBatch: 1})},
			check.Config{Retain: true, Retention: check.RetentionPolicy{GCBatch: 1}}},
		{"retention-commitcuts", []check.IncOption{check.WithRetention(check.RetentionPolicy{GCBatch: 4, CommitCuts: true})},
			check.Config{Retain: true, Retention: check.RetentionPolicy{GCBatch: 4, CommitCuts: true}}},
		{"parallel-2", []check.IncOption{check.WithParallelism(2)},
			check.Config{Parallelism: 2}},
		{"parallel-4-retained", []check.IncOption{check.WithParallelism(4), check.WithRetention(check.RetentionPolicy{GCBatch: 2})},
			check.Config{Parallelism: 4, Retain: true, Retention: check.RetentionPolicy{GCBatch: 2}}},
		{"kitchen-sink", []check.IncOption{
			check.WithRetention(check.RetentionPolicy{KeepEvents: 64, GCBatch: 2, CommitCuts: true}),
			check.WithParallelism(3),
		}, check.Config{
			Retain:      true,
			Retention:   check.RetentionPolicy{KeepEvents: 64, GCBatch: 2, CommitCuts: true},
			Parallelism: 3,
		}},
	}
}

func TestConfigOptionEquivalence(t *testing.T) {
	models := []spec.Model{spec.Queue(), spec.Stack(), spec.Counter()}
	for _, m := range models {
		for _, eq := range equivalences() {
			t.Run(m.Name()+"/"+eq.name, func(t *testing.T) {
				for seed := int64(0); seed < 3; seed++ {
					h := trace.RandomLinearizable(m, seed, 4, 72)
					if seed == 2 {
						h = trace.Mutate(h, seed+11) // likely-violating stream
					}
					a := check.NewIncremental(m, eq.opts...)
					b := check.NewIncremental(m, check.WithConfig(eq.cfg))
					if a.Config() != b.Config() {
						t.Fatalf("configs diverge: options %+v, config %+v", a.Config(), b.Config())
					}
					for i := 0; i < len(h); i += 16 {
						d := h[i:min(i+16, len(h))]
						va, vb := a.Append(d), b.Append(d)
						if va != vb {
							t.Fatalf("seed %d, event %d: option verdict %v, config verdict %v", seed, i, va, vb)
						}
						if a.Stats() != b.Stats() {
							t.Fatalf("seed %d, event %d: stats diverge\noptions: %+v\nconfig:  %+v",
								seed, i, a.Stats(), b.Stats())
						}
						if !reflect.DeepEqual(a.History(), b.History()) || a.Discarded() != b.Discarded() {
							t.Fatalf("seed %d, event %d: retained window diverges (%d/%d events, %d/%d discarded)",
								seed, i, len(a.History()), len(b.History()), a.Discarded(), b.Discarded())
						}
						if a.FrontierSize() != b.FrontierSize() {
							t.Fatalf("seed %d, event %d: frontier %d vs %d", seed, i, a.FrontierSize(), b.FrontierSize())
						}
					}
				}
			})
		}
	}
}

// TestConfigEcho: a monitor reports the Config it was built from, and the
// thin-wrapper options write exactly the fields their docs claim.
func TestConfigEcho(t *testing.T) {
	inc := check.NewIncremental(spec.Queue(),
		check.WithRetention(check.RetentionPolicy{GCBatch: 7}),
		check.WithParallelism(2))
	want := check.Config{
		Retain:      true,
		Retention:   check.RetentionPolicy{GCBatch: 7},
		Parallelism: 2,
	}
	if got := inc.Config(); got != want {
		t.Fatalf("Config() = %+v, want %+v", got, want)
	}
	// Last write wins: WithConfig replaces everything accumulated so far.
	inc2 := check.NewIncremental(spec.Queue(),
		check.WithParallelism(8),
		check.WithConfig(check.Config{Retain: true}))
	if got := inc2.Config(); got != (check.Config{Retain: true}) {
		t.Fatalf("WithConfig did not replace prior options: %+v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  check.Config
		want string // "" = valid
	}{
		{"zero", check.Config{}, ""},
		{"full", check.Config{Retain: true,
			Retention:   check.RetentionPolicy{KeepEvents: 10, GCBatch: 5, StateBudget: 100, MaxFrontierStates: 8, CommitCuts: true},
			Parallelism: 16}, ""},
		{"negative parallelism", check.Config{Parallelism: -1}, "negative"},
		{"excess parallelism", check.Config{Parallelism: check.MaxParallelism + 1}, "exceeds"},
		{"retention without retain", check.Config{Retention: check.RetentionPolicy{GCBatch: 1}}, "without retain"},
		{"negative keep", check.Config{Retain: true, Retention: check.RetentionPolicy{KeepEvents: -2}}, "negative"},
		{"negative gcbatch", check.Config{Retain: true, Retention: check.RetentionPolicy{GCBatch: -1}}, "negative"},
		{"negative budget", check.Config{Retain: true, Retention: check.RetentionPolicy{StateBudget: -1}}, "negative"},
		{"negative frontier", check.Config{Retain: true, Retention: check.RetentionPolicy{MaxFrontierStates: -3}}, "negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}
