package check_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/spec"
	"repro/internal/trace"
)

// configCases are the configurations the equivalence suite builds monitors
// from: the default, every retention shape, and parallelism with and
// without retention.
func configCases() []struct {
	name string
	cfg  check.Config
} {
	return []struct {
		name string
		cfg  check.Config
	}{
		{"default", check.Config{}},
		{"retention", check.Config{Retain: true}},
		{"retention-tight", check.Config{Retain: true, Retention: check.RetentionPolicy{GCBatch: 1}}},
		{"retention-commitcuts", check.Config{Retain: true, Retention: check.RetentionPolicy{GCBatch: 4, CommitCuts: true}}},
		{"parallel-2", check.Config{Parallelism: 2}},
		{"parallel-4-retained", check.Config{Parallelism: 4, Retain: true, Retention: check.RetentionPolicy{GCBatch: 2}}},
		{"kitchen-sink", check.Config{
			Retain:      true,
			Retention:   check.RetentionPolicy{KeepEvents: 64, GCBatch: 2, CommitCuts: true},
			Parallelism: 3,
		}},
	}
}

// TestConfigOptionEquivalence: the two ways a Config becomes a monitor yield
// the same monitor. One is a standalone NewIncremental(WithConfig(cfg)); the
// other is the monitoring service's path, Shards.Add(WithConfig(cfg)), where
// the monitor shares the set's search-arena pool with a sibling driven on
// another goroutine at the same time. Both go through identical streams and
// must agree bit for bit — per-append verdicts, IncStats, the retained
// window, the frontier.
func TestConfigOptionEquivalence(t *testing.T) {
	models := []spec.Model{spec.Queue(), spec.Stack(), spec.Counter()}
	for _, m := range models {
		for _, tc := range configCases() {
			t.Run(m.Name()+"/"+tc.name, func(t *testing.T) {
				for seed := int64(0); seed < 3; seed++ {
					h := trace.RandomLinearizable(m, seed, 4, 72)
					sib := trace.RandomLinearizable(m, seed+100, 4, 72)
					if seed == 2 {
						h = trace.Mutate(h, seed+11) // likely-violating stream
					}
					a := check.NewIncremental(m, check.WithConfig(tc.cfg))
					sh := check.NewShards(nil, 1)
					b := sh.Shard(sh.Add(m, check.WithConfig(tc.cfg)))
					sibling := sh.Shard(sh.Add(m, check.WithConfig(tc.cfg)))
					if a.Config() != b.Config() || a.Config() != tc.cfg {
						t.Fatalf("configs diverge: standalone %+v, shard %+v, want %+v", a.Config(), b.Config(), tc.cfg)
					}
					for i := 0; i < len(h); i += 16 {
						d := h[i:min(i+16, len(h))]
						done := make(chan struct{})
						go func() {
							sibling.Append(sib[min(i, len(sib)):min(i+16, len(sib))])
							close(done)
						}()
						va, vb := a.Append(d), b.Append(d)
						<-done
						if va != vb {
							t.Fatalf("seed %d, event %d: standalone verdict %v, shard verdict %v", seed, i, va, vb)
						}
						if a.Stats() != b.Stats() {
							t.Fatalf("seed %d, event %d: stats diverge\nstandalone: %+v\nshard:      %+v",
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

// TestConfigEcho: a monitor reports the Config it was built from, and a
// later WithConfig replaces earlier ones.
func TestConfigEcho(t *testing.T) {
	want := check.Config{
		Retain:      true,
		Retention:   check.RetentionPolicy{GCBatch: 7},
		Parallelism: 2,
	}
	if got := check.NewIncremental(spec.Queue(), check.WithConfig(want)).Config(); got != want {
		t.Fatalf("Config() = %+v, want %+v", got, want)
	}
	inc2 := check.NewIncremental(spec.Queue(),
		check.WithConfig(check.Config{Parallelism: 8}),
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
