package check

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// TestWGAgreesWithBruteForce is the core correctness property of the
// optimised checker: on thousands of tiny random histories — linearizable by
// construction, mutated, and fully random — its verdict equals exhaustive
// enumeration's.
func TestWGAgreesWithBruteForce(t *testing.T) {
	models := []spec.Model{spec.Queue(), spec.Stack(), spec.Counter(), spec.Register(0), spec.Set(), spec.Consensus()}
	for _, m := range models {
		for seed := int64(0); seed < 60; seed++ {
			base := trace.RandomLinearizable(m, seed, 3, 6)
			candidates := []history.History{
				base,
				trace.Mutate(base, seed*7+1),
				trace.Mutate(trace.Mutate(base, seed*11+2), seed*13+3),
			}
			for ci, h := range candidates {
				want := BruteForceLinearizable(m, h)
				got := IsLinearizable(m, h)
				if got != want {
					t.Fatalf("%s seed %d case %d: wg=%v brute=%v\n%s", m.Name(), seed, ci, got, want, h.String())
				}
			}
		}
	}
}

// TestWGAgreesOnRandomGarbage feeds fully random (but well-formed) histories
// with arbitrary responses — far outside the generator's linearizable space.
func TestWGAgreesOnRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		h := randomGarbage(rng, 3, 5)
		want := BruteForceLinearizable(spec.Queue(), h)
		got := IsLinearizable(spec.Queue(), h)
		if got != want {
			t.Fatalf("trial %d: wg=%v brute=%v\n%s", trial, got, want, h.String())
		}
	}
}

// randomGarbage builds a random well-formed queue history with arbitrary
// responses.
func randomGarbage(rng *rand.Rand, procs, nops int) history.History {
	var h history.History
	pending := map[int]spec.Operation{}
	var uniq uint64
	started := 0
	for started < nops || len(pending) > 0 {
		p := rng.Intn(procs)
		if op, busy := pending[p]; busy {
			if rng.Intn(2) == 0 {
				var res spec.Response
				switch rng.Intn(3) {
				case 0:
					res = spec.OKResp()
				case 1:
					res = spec.EmptyResp()
				default:
					res = spec.ValueResp(int64(rng.Intn(4)))
				}
				h = append(h, history.Event{Kind: history.Return, Proc: p, ID: op.Uniq, Op: op, Res: res})
				delete(pending, p)
			}
			continue
		}
		if started >= nops {
			continue
		}
		uniq++
		var op spec.Operation
		if rng.Intn(2) == 0 {
			op = spec.Operation{Method: spec.MethodEnq, Arg: int64(rng.Intn(4)), Uniq: uniq}
		} else {
			op = spec.Operation{Method: spec.MethodDeq, Uniq: uniq}
		}
		pending[p] = op
		h = append(h, history.Event{Kind: history.Invoke, Proc: p, ID: op.Uniq, Op: op})
		started++
	}
	return h
}

// bruteFinalStates is the exhaustive reference for FinalStates: every order of
// the operations of the quiescent history h that respects its real-time
// order, replayed from m's initial state, with the final state of each legal
// one collected by Key(). An unlinearizable h yields the empty set. Keep h at
// seven operations or fewer.
func bruteFinalStates(m spec.Model, h history.History) map[string]bool {
	ops := h.Ops()
	finals := map[string]bool{}
	used := make([]bool, len(ops))
	var walk func(st spec.State, n int)
	walk = func(st spec.State, n int) {
		if n == len(ops) {
			finals[st.Key()] = true
			return
		}
		for i, o := range ops {
			if used[i] {
				continue
			}
			ready := true
			for j, p := range ops {
				if !used[j] && p.RetIdx < o.InvIdx {
					ready = false // p returned before o was invoked
					break
				}
			}
			if !ready {
				continue
			}
			next, res, ok := st.Apply(o.Op)
			if !ok || res != o.Res {
				continue
			}
			used[i] = true
			walk(next, n+1)
			used[i] = false
		}
	}
	walk(m.Init(), 0)
	return finals
}

// checkFinalStatesBrute compares FinalStates on the quiescent history h with
// the exhaustive reference, with limits high enough never to bind.
func checkFinalStatesBrute(t *testing.T, m spec.Model, h history.History, label string) {
	t.Helper()
	want := bruteFinalStates(m, h)
	got, ok := newSearchArena().FinalStates(m.Init(), h, 1<<20, 1<<10)
	if !ok {
		t.Fatalf("%s: FinalStates gave up under limits that cannot bind\n%s", label, h.String())
	}
	keys := map[string]bool{}
	for _, st := range got {
		if keys[st.Key()] {
			t.Fatalf("%s: FinalStates returned state %s twice", label, st.Key())
		}
		keys[st.Key()] = true
	}
	if len(keys) != len(want) {
		t.Fatalf("%s: FinalStates found %d states %v, brute force %d %v\n%s", label, len(keys), keys, len(want), want, h.String())
	}
	for k := range want {
		if !keys[k] {
			t.Fatalf("%s: FinalStates missed state %s (brute force %v)\n%s", label, k, want, h.String())
		}
	}
}

// TestFinalStatesAgreesWithBruteForce pins the state set of the enumerate
// mode, not just the verdicts built on it: over every model, on small
// linearizable histories and mutated ones (whose set may be empty), the
// enumeration returns exactly the final states of the legal orders.
func TestFinalStatesAgreesWithBruteForce(t *testing.T) {
	for _, m := range fuzzModels() {
		for seed := int64(0); seed < 40; seed++ {
			base := trace.RandomLinearizable(m, seed, 3, 7).Complete()
			for ci, h := range []history.History{
				base,
				trace.Mutate(base, seed*7+1),
				trace.Mutate(trace.Mutate(base, seed*11+2), seed*13+3),
			} {
				checkFinalStatesBrute(t, m, h, fmt.Sprintf("%s seed %d case %d", m.Name(), seed, ci))
			}
		}
	}
}

// FuzzFinalStatesBrute lets the native fuzzer pick the model, concurrency,
// size and mutation of the history TestFinalStatesAgreesWithBruteForce checks.
func FuzzFinalStatesBrute(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(7), int64(1), false)
	f.Add(uint8(2), uint8(2), uint8(5), int64(9), true)
	f.Add(uint8(7), uint8(4), uint8(6), int64(3), true)
	f.Fuzz(func(t *testing.T, which, procs, size uint8, seed int64, mutate bool) {
		models := fuzzModels()
		m := models[int(which)%len(models)]
		h := trace.RandomLinearizable(m, seed, 2+int(procs)%3, 1+int(size)%7).Complete()
		if mutate {
			h = trace.Mutate(h, seed+1)
		}
		checkFinalStatesBrute(t, m, h, "fuzz")
	})
}

func TestBruteForceBasics(t *testing.T) {
	good := history.NewBuilder().
		Call(0, spec.MethodEnq, 1, spec.OKResp()).
		Call(1, spec.MethodDeq, 0, spec.ValueResp(1)).
		MustHistory(t)
	if !BruteForceLinearizable(spec.Queue(), good) {
		t.Fatal("member rejected")
	}
	bad := history.NewBuilder().
		Call(1, spec.MethodDeq, 0, spec.ValueResp(1)).
		Call(0, spec.MethodEnq, 1, spec.OKResp()).
		MustHistory(t)
	if BruteForceLinearizable(spec.Queue(), bad) {
		t.Fatal("non-member accepted")
	}
	if !BruteForceLinearizable(spec.Queue(), nil) {
		t.Fatal("empty history rejected")
	}
}
