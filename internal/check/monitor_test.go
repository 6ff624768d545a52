package check

import (
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// handCase is a small hand-written history with a pinned verdict.
type handCase struct {
	name string
	m    spec.Model
	b    *history.Builder
	want bool // linearizable
}

// handCases each isolate one way a queue, stack, counter or register history
// can fail (or, for the pending-dequeue case, appear to fail without doing
// so).
func handCases() []handCase {
	return []handCase{
		{"queue/phantom", spec.Queue(), history.NewBuilder().
			Call(0, spec.MethodDeq, 0, spec.ValueResp(99)), false},
		{"queue/duplicate", spec.Queue(), history.NewBuilder().
			Call(0, spec.MethodEnq, 1, spec.OKResp()).
			Call(1, spec.MethodDeq, 0, spec.ValueResp(1)).
			Call(1, spec.MethodDeq, 0, spec.ValueResp(1)), false},
		{"queue/fifo-violation", spec.Queue(), history.NewBuilder().
			Call(0, spec.MethodEnq, 1, spec.OKResp()).
			Call(0, spec.MethodEnq, 2, spec.OKResp()).
			Call(1, spec.MethodDeq, 0, spec.ValueResp(2)).
			Call(1, spec.MethodDeq, 0, spec.ValueResp(1)), false},
		// Enq(1) completed, then Deq():empty — but a pending Deq was in
		// flight the whole time and may have removed the value.
		{"queue/empty-with-pending-deq", spec.Queue(), history.NewBuilder().
			Inv(2, spec.MethodDeq, 0).
			Call(0, spec.MethodEnq, 1, spec.OKResp()).
			Call(1, spec.MethodDeq, 0, spec.EmptyResp()), true},
		{"queue/impossible-empty", spec.Queue(), history.NewBuilder().
			Call(0, spec.MethodEnq, 1, spec.OKResp()).
			Call(1, spec.MethodDeq, 0, spec.EmptyResp()), false},
		{"stack/impossible-empty", spec.Stack(), history.NewBuilder().
			Call(0, spec.MethodPush, 1, spec.BoolResp(true)).
			Call(1, spec.MethodPop, 0, spec.EmptyResp()), false},
		{"counter/low-bound", spec.Counter(), history.NewBuilder().
			Call(0, spec.MethodInc, 0, spec.OKResp()).
			Call(1, spec.MethodRead, 0, spec.ValueResp(0)), false},
		{"counter/high-bound", spec.Counter(), history.NewBuilder().
			Call(1, spec.MethodRead, 0, spec.ValueResp(1)).
			Call(0, spec.MethodInc, 0, spec.OKResp()), false},
		// The pending Inc keeps both bounds loose; only the order of the
		// two sequential reads refutes.
		{"counter/monotonicity", spec.Counter(), history.NewBuilder().
			Inv(2, spec.MethodInc, 0).
			Call(0, spec.MethodRead, 0, spec.ValueResp(1)).
			Call(1, spec.MethodRead, 0, spec.ValueResp(0)), false},
		{"register/stale-read", spec.Register(0), history.NewBuilder().
			Call(0, spec.MethodWrite, 1, spec.OKResp()).
			Call(0, spec.MethodWrite, 2, spec.OKResp()).
			Call(1, spec.MethodRead, 0, spec.ValueResp(1)), false},
		{"register/initial-after-write", spec.Register(0), history.NewBuilder().
			Call(0, spec.MethodWrite, 1, spec.OKResp()).
			Call(1, spec.MethodRead, 0, spec.ValueResp(0)), false},
	}
}

// incrementalVerdict feeds h one event per Append and returns the final
// verdict.
func incrementalVerdict(m spec.Model, h history.History, opts ...IncOption) Verdict {
	inc := NewIncremental(m, opts...)
	v := Yes
	for i := range h {
		v = inc.Append(h[i : i+1])
	}
	return v
}

// TestForModelAgreesWithWG: the one-shot composition and the incremental
// monitor (full-witness and retained) must produce the complete checker's
// verdict on every history — the hand-written cases against pinned
// verdicts (and the brute-force reference), then generated histories.
func TestForModelAgreesWithWG(t *testing.T) {
	verdictOf := func(ok bool) Verdict {
		if ok {
			return Yes
		}
		return No
	}
	for _, tc := range handCases() {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.b.MustHistory(t)
			want := verdictOf(tc.want)
			for _, got := range []struct {
				who string
				v   Verdict
			}{
				{"IsLinearizable", verdictOf(IsLinearizable(tc.m, h))},
				{"BruteForceLinearizable", verdictOf(BruteForceLinearizable(tc.m, h))},
				{ForModel(tc.m).Name(), ForModel(tc.m).Check(h)},
				{"incremental", incrementalVerdict(tc.m, h)},
				{"incremental-retained", incrementalVerdict(tc.m, h, WithConfig(Config{Retain: true}))},
			} {
				if got.v != want {
					t.Errorf("%s = %v, want %v\n%s", got.who, got.v, want, h.String())
				}
			}
		})
	}

	models := []spec.Model{spec.Counter(), spec.Register(0), spec.Queue(), spec.Stack(), spec.Set(), spec.PQueue()}
	for _, m := range models {
		mon := ForModel(m)
		for seed := int64(0); seed < 80; seed++ {
			base := trace.RandomLinearizable(m, seed, 3, 10)
			for _, h := range []history.History{base, trace.Mutate(base, seed*17)} {
				want := IsLinearizable(m, h)
				got := mon.Check(h)
				if got == Maybe {
					t.Fatalf("%s: returned Maybe", mon.Name())
				}
				if (got == Yes) != want {
					t.Fatalf("%s seed %d: got %v want lin=%v\n%s", mon.Name(), seed, got, want, h.String())
				}
			}
		}
	}
}

func TestVerdictString(t *testing.T) {
	if Yes.String() != "Yes" || No.String() != "No" || Maybe.String() != "Maybe" {
		t.Fatal("verdict names wrong")
	}
	if Verdict(0).String() != "invalid" {
		t.Fatal("zero verdict must be invalid")
	}
}

func TestMonitorNames(t *testing.T) {
	if got := ForModel(spec.Counter()).Name(); got != "wg-counter" {
		t.Fatalf("complete-only name = %q", got)
	}
	if got := ForModel(spec.Set()).Name(); got != "loglin-set+wg-set" {
		t.Fatalf("tiered name = %q", got)
	}
	if got := ForModel(spec.Queue()).Name(); got != "loglin-queue+wg-queue" {
		t.Fatalf("tiered name = %q", got)
	}
}
