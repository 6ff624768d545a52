package check

import (
	"math/rand"
	"testing"

	"repro/internal/check/loglin"
	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// This file is the correctness backbone of the log-linear fast tier: the
// tier's Yes/No verdicts are differentially checked against the exact
// Wing–Gong search, and its Ambiguous verdicts are checked against an
// independent, history-level mirror of the documented ambiguity triggers.
// A tier that guessed (decided outside its fragment) or that fell back
// spuriously (claimed ambiguity with no trigger present) fails here.

// fastTierTrigger recomputes, directly from the history and independently of
// the loglin implementation, whether one of the documented ambiguity
// triggers is present: a value inserted more than once, a pending
// removal/read, an operation outside the model's per-value classification,
// or (stack only) a matched pair with disjoint push/pop intervals.
func fastTierTrigger(m spec.Model, h history.History) bool {
	pv, ok := m.(spec.PerValueMatched)
	if !ok {
		return true
	}
	ops := h.Ops()
	switch m.Name() {
	case "queue", "stack", "pqueue":
		inserts := map[int64]int{}
		insRet := map[int64]int{} // completed insert's return index; -1 pending
		remInv := map[int64]int{}
		for _, o := range ops {
			if v, vok := pv.InsertValue(o.Op); vok {
				inserts[v]++
				if inserts[v] > 1 {
					return true // duplicate value
				}
				if o.Complete {
					insRet[v] = o.RetIdx
				} else {
					insRet[v] = -1
				}
				continue
			}
			if !o.Complete {
				return true // pending removal
			}
			if v, vok := pv.RemoveValue(o.Op, o.Res); vok {
				if _, seen := remInv[v]; !seen {
					remInv[v] = o.InvIdx
				}
				continue
			}
			if pv.RemovedEmpty(o.Op, o.Res) {
				continue
			}
			return true // operation outside the classification
		}
		if m.Name() == "stack" {
			for v, ri := range remInv {
				er, matched := insRet[v]
				if !matched || er < 0 {
					continue // unmatched (a No) or pending-forced (a blip)
				}
				if er <= ri {
					return true // forced residency
				}
			}
		}
		return false
	case "set":
		adds := map[int64]int{}
		for _, o := range ops {
			switch o.Op.Method {
			case spec.MethodAdd:
				adds[o.Op.Arg]++
				if adds[o.Op.Arg] > 1 {
					return true
				}
				if o.Complete && o.Res.Kind != spec.KindTrue && o.Res.Kind != spec.KindFalse {
					return true
				}
			case spec.MethodRemove, spec.MethodContains:
				if !o.Complete {
					return true
				}
				if o.Res.Kind != spec.KindTrue && o.Res.Kind != spec.KindFalse {
					return true
				}
			default:
				return true
			}
		}
		return false
	}
	return true
}

// diffFastTier runs the tier on h and holds it to its contract: any claimed
// decision must equal the exact search's verdict, and a fallback is only
// legitimate when a trigger is demonstrably present.
func diffFastTier(t *testing.T, m spec.Model, h history.History, label string) {
	t.Helper()
	r := loglin.Decide(m, h)
	switch r.V {
	case loglin.Ambiguous:
		if !fastTierTrigger(m, h) {
			t.Fatalf("%s (%s): tier fell back (%v) on a history with no ambiguity trigger",
				label, m.Name(), r.Trigger)
		}
	case loglin.Yes, loglin.No:
		want := Linearizable(m, h).Ok
		if got := r.V == loglin.Yes; got != want {
			t.Fatalf("%s (%s): tier decided %v, Wing–Gong says Ok=%v\nhistory: %v",
				label, m.Name(), r.V, want, h)
		}
	default:
		t.Fatalf("%s (%s): tier returned invalid verdict %d", label, m.Name(), r.V)
	}
}

// squashValues folds all value arguments (and value responses) onto k
// residues, manufacturing duplicate inserted values — the histories the
// duplicate trigger exists for. The result may or may not stay linearizable;
// the differential contract covers both.
func squashValues(h history.History, k int64) history.History {
	out := make(history.History, len(h))
	copy(out, h)
	for i := range out {
		e := &out[i]
		e.Op.Arg = ((e.Op.Arg % k) + k) % k
		if e.Res.Kind == spec.KindValue {
			e.Res.Val = ((e.Res.Val % k) + k) % k
		}
	}
	return out
}

// flipBool flips one random boolean response — a shape-legal illegal stream
// (e.g. a set Add suddenly claiming the value was present), which the tier
// must either refute in agreement with Wing–Gong or hand back as ambiguous.
func flipBool(h history.History, seed int64) history.History {
	rng := rand.New(rand.NewSource(seed))
	out := make(history.History, len(h))
	copy(out, h)
	var bools []int
	for i, e := range out {
		if e.Kind == history.Return && (e.Res.Kind == spec.KindTrue || e.Res.Kind == spec.KindFalse) {
			bools = append(bools, i)
		}
	}
	if len(bools) == 0 {
		return out
	}
	i := bools[rng.Intn(len(bools))]
	if out[i].Res.Kind == spec.KindTrue {
		out[i].Res = spec.BoolResp(false)
	} else {
		out[i].Res = spec.BoolResp(true)
	}
	return out
}

// prefixInserts mirrors, independently of loglin, how a state's resident
// values are written as inserts: the insert method and the response it gives
// on an absent value.
var prefixInserts = map[string]struct {
	method string
	res    spec.Response
}{
	"queue":  {spec.MethodEnq, spec.OKResp()},
	"stack":  {spec.MethodPush, spec.BoolResp(true)},
	"set":    {spec.MethodAdd, spec.BoolResp(true)},
	"pqueue": {spec.MethodInsert, spec.OKResp()},
}

// withPrefix returns h behind a sequential prefix of completed inserts of
// vals, on a process and with ids h does not use: the history the tier
// decides when it runs from the state whose resident values are vals.
func withPrefix(m spec.Model, vals []int64, h history.History) history.History {
	proc, id := 0, uint64(0)
	for _, e := range h {
		proc, id = max(proc, e.Proc+1), max(id, e.ID+1)
	}
	ins := prefixInserts[m.Name()]
	out := make(history.History, 0, 2*len(vals)+len(h))
	for i, v := range vals {
		op := spec.Operation{Method: ins.method, Arg: v, Uniq: id + uint64(i)}
		out = append(out,
			history.Event{Kind: history.Invoke, Proc: proc, ID: op.Uniq, Op: op},
			history.Event{Kind: history.Return, Proc: proc, ID: op.Uniq, Op: op, Res: ins.res})
	}
	return append(out, h...)
}

// linearizableFrom is the exact search's verdict on h from state st.
func linearizableFrom(st spec.State, h history.History) bool {
	s := newSegSearch(st, newSearchArena())
	s.load(h)
	return len(s.ar.ops) == 0 || s.Run()
}

// randomStart collapses a random completed prefix of h to one state: it cuts
// h at a quiescent moment picked by seed, enumerates the prefix's reachable
// final states, and picks one of them by seed too. It returns that state and
// the rest of h, which is linearizable from at least one of the prefix's
// states — so the tier meets states it must accept from and states it must
// refute from. Without an interior quiescent moment the start is the
// initial state and the whole of h.
func randomStart(m spec.Model, h history.History, seed int64) (spec.State, history.History) {
	var cuts []int
	open := 0
	for i, e := range h[:max(len(h)-1, 0)] {
		if e.Kind == history.Invoke {
			open++
		} else {
			open--
		}
		if open == 0 {
			cuts = append(cuts, i+1)
		}
	}
	if len(cuts) == 0 {
		return m.Init(), h
	}
	pick := uint64(seed)
	q := cuts[pick%uint64(len(cuts))]
	finals, ok := newSearchArena().FinalStates(m.Init(), h[:q], 1<<16, 1<<10)
	if !ok || len(finals) == 0 {
		return m.Init(), h
	}
	return finals[(pick/3)%uint64(len(finals))], h[q:]
}

// diffFastTierFrom holds the tier run from state st (loglin.DecideFrom on
// st's resident values) to the same contract as diffFastTier, against the
// exact search from st. A decided input also checks the reduction itself:
// the search from st and the search on h behind st's prefix of inserts must
// agree. Like diffFastTier it searches only when the tier decided: the
// ambiguous inputs are where the search's heavy tail lives.
func diffFastTierFrom(t *testing.T, m spec.Model, st spec.State, h history.History, label string) {
	t.Helper()
	vals, ok := m.(spec.PerValueMatched).Resident(st)
	if !ok {
		t.Fatalf("%s (%s): no resident values for state %s", label, m.Name(), st.Key())
	}
	whole := withPrefix(m, vals, h)
	r := loglin.DecideFrom(m, vals, h)
	switch r.V {
	case loglin.Ambiguous:
		if !fastTierTrigger(m, whole) {
			t.Fatalf("%s (%s): tier from %s fell back (%v) with no ambiguity trigger",
				label, m.Name(), st.Key(), r.Trigger)
		}
	case loglin.Yes, loglin.No:
		want := linearizableFrom(st, h)
		if got := Linearizable(m, whole).Ok; got != want {
			t.Fatalf("%s (%s): search from %s says %v, behind its prefix %v\nhistory: %v",
				label, m.Name(), st.Key(), want, got, h)
		}
		if got := r.V == loglin.Yes; got != want {
			t.Fatalf("%s (%s): tier from %s decided %v, Wing–Gong says Ok=%v\nhistory: %v",
				label, m.Name(), st.Key(), r.V, want, h)
		}
	default:
		t.Fatalf("%s (%s): tier returned invalid verdict %d", label, m.Name(), r.V)
	}
}

// fastTierVariants exercises one generated history plus its adversarial
// derivatives — a mutated (likely illegal) stream, a value-squashed stream
// with duplicate inserts, and a boolean-flipped stream — from the initial
// state, and the same derivatives of its suffix from a state its prefix
// reaches (randomStart).
func fastTierVariants(t *testing.T, m spec.Model, seed int64, procs, nops int) {
	t.Helper()
	variants := func(h history.History) []history.History {
		return []history.History{h, trace.Mutate(h, seed+101), squashValues(h, 3+((seed%5)+5)%5), flipBool(h, seed+211)}
	}
	labels := []string{"generated", "mutated", "squashed", "flipped"}
	h := trace.RandomLinearizable(m, seed, procs, nops)
	for i, v := range variants(h) {
		diffFastTier(t, m, v, labels[i])
	}
	st, seg := randomStart(m, h, seed)
	for i, v := range variants(seg) {
		diffFastTierFrom(t, m, st, v, labels[i]+" from state")
	}
}

// TestFastTierDifferential is the deterministic tier-1 slice of the
// differential fuzz surface: every supported model, a seed sweep, all
// adversarial variants, from the initial and from a random start state.
func TestFastTierDifferential(t *testing.T) {
	for _, m := range []spec.Model{spec.Queue(), spec.Stack(), spec.Set(), spec.PQueue()} {
		t.Run(m.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 60; seed++ {
				fastTierVariants(t, m, seed, 2+int(seed%3), 24+int(seed%17))
			}
		})
	}
}

// TestFastTierUnsupportedModels pins the tier's behaviour outside its
// fragment: models without per-value matching always fall back.
func TestFastTierUnsupportedModels(t *testing.T) {
	for _, m := range []spec.Model{spec.Counter(), spec.Register(0), spec.Consensus(), spec.SnapshotObj(4)} {
		if loglin.Supported(m) {
			t.Fatalf("%s: unexpectedly supported", m.Name())
		}
		h := trace.RandomLinearizable(m, 3, 3, 24)
		if r := loglin.Decide(m, h); r.V != loglin.Ambiguous || r.Trigger != loglin.TriggerModel {
			t.Fatalf("%s: Decide returned %v/%v, want Ambiguous/model", m.Name(), r.V, r.Trigger)
		}
	}
}

// The four native fuzzers behind the nightly CI budget. Ops stay under 40:
// dense random histories at higher counts hit the Wing–Gong heavy cost tail
// (B11 notes) and the differential oracle runs it on every input.

func fuzzFastTier(m spec.Model) func(*testing.T, int64, uint8, uint8) {
	return func(t *testing.T, seed int64, procs, size uint8) {
		fastTierVariants(t, m, seed, 2+int(procs)%4, 8+int(size)%32)
	}
}

func FuzzFastTierQueue(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(16))
	f.Add(int64(2), uint8(2), uint8(31))
	f.Add(int64(17), uint8(3), uint8(24))
	f.Add(int64(29), uint8(1), uint8(8))
	f.Fuzz(fuzzFastTier(spec.Queue()))
}

func FuzzFastTierStack(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(16))
	f.Add(int64(5), uint8(3), uint8(31))
	f.Add(int64(13), uint8(0), uint8(24))
	f.Add(int64(23), uint8(2), uint8(12))
	f.Fuzz(fuzzFastTier(spec.Stack()))
}

func FuzzFastTierSet(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(16))
	f.Add(int64(7), uint8(3), uint8(31))
	f.Add(int64(11), uint8(1), uint8(20))
	f.Add(int64(31), uint8(2), uint8(28))
	f.Fuzz(fuzzFastTier(spec.Set()))
}

func FuzzFastTierPQueue(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(16))
	f.Add(int64(3), uint8(3), uint8(31))
	f.Add(int64(19), uint8(1), uint8(24))
	f.Add(int64(37), uint8(2), uint8(10))
	f.Fuzz(fuzzFastTier(spec.PQueue()))
}
