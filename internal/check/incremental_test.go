package check

import (
	"math/rand"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// chunks splits h into well-formed-extension deltas of random sizes (any
// event-aligned split of a history is a valid extension sequence).
func chunks(h history.History, rng *rand.Rand) []history.History {
	var out []history.History
	for len(h) > 0 {
		k := 1 + rng.Intn(5)
		if k > len(h) {
			k = len(h)
		}
		out = append(out, h[:k])
		h = h[k:]
	}
	return out
}

// TestIncrementalEquivalence: the incremental verdict after every delta
// equals the full checker's verdict on the corresponding prefix, on
// linearizable-by-construction traces and on mutated (possibly violating)
// ones, across all models with a trace generator.
func TestIncrementalEquivalence(t *testing.T) {
	models := []spec.Model{
		spec.Queue(), spec.Stack(), spec.Counter(), spec.Register(0), spec.Set(), spec.PQueue(),
	}
	for _, m := range models {
		for seed := int64(1); seed <= 6; seed++ {
			h := trace.RandomLinearizable(m, seed, 3, 24)
			if seed%2 == 0 {
				h = trace.Mutate(h, seed*31)
			}
			rng := rand.New(rand.NewSource(seed * 7))
			inc := NewIncremental(m)
			prefix := 0
			for _, delta := range chunks(h, rng) {
				prefix += len(delta)
				got := inc.Append(delta)
				want := Yes
				if !IsLinearizable(m, h[:prefix]) {
					want = No
				}
				if got != want {
					t.Fatalf("%s seed=%d prefix=%d: incremental=%v full=%v\nhistory:\n%s",
						m.Name(), seed, prefix, got, want, h[:prefix].String())
				}
				if inc.Verdict() != got {
					t.Fatalf("cached verdict %v != returned %v", inc.Verdict(), got)
				}
			}
			if len(inc.History()) != len(h) {
				t.Fatalf("retained history has %d events, want %d", len(inc.History()), len(h))
			}
		}
	}
}

// TestIncrementalStickyNo: once refuted, every extension stays refuted and is
// answered without re-checking (prefix-closure, Lemma 7.1).
func TestIncrementalStickyNo(t *testing.T) {
	m := spec.Queue()
	bad := history.History{
		{Kind: history.Invoke, Proc: 0, ID: 1, Op: spec.Operation{Method: spec.MethodDeq, Uniq: 1}},
		{Kind: history.Return, Proc: 0, ID: 1, Op: spec.Operation{Method: spec.MethodDeq, Uniq: 1}, Res: spec.ValueResp(42)},
	}
	inc := NewIncremental(m)
	if inc.Append(bad) != No {
		t.Fatal("phantom dequeue accepted")
	}
	before := inc.Stats()
	more := history.History{
		{Kind: history.Invoke, Proc: 1, ID: 2, Op: spec.Operation{Method: spec.MethodEnq, Arg: 1, Uniq: 2}},
		{Kind: history.Return, Proc: 1, ID: 2, Op: spec.Operation{Method: spec.MethodEnq, Arg: 1, Uniq: 2}, Res: spec.OKResp()},
	}
	if inc.Append(more) != No {
		t.Fatal("extension of a violation accepted")
	}
	after := inc.Stats()
	if after.SegChecks != before.SegChecks || after.Fallbacks != before.Fallbacks {
		t.Fatal("sticky No ran checker work")
	}
	if after.StickyNo != before.StickyNo+1 {
		t.Fatal("sticky No not counted")
	}
	if len(inc.History()) != 4 {
		t.Fatalf("witness retention broken: %d events", len(inc.History()))
	}
}

// TestIncrementalCompaction: a quiescent linearizable cut advances the
// frontier, so later appends check only the suffix.
func TestIncrementalCompaction(t *testing.T) {
	m := spec.Counter()
	inc := NewIncremental(m)
	var id uint64
	oneOp := func() history.History {
		id++
		op := spec.Operation{Method: spec.MethodInc, Uniq: id}
		return history.History{
			{Kind: history.Invoke, Proc: 0, ID: id, Op: op},
			{Kind: history.Return, Proc: 0, ID: id, Op: op, Res: spec.OKResp()},
		}
	}
	for i := 0; i < 50; i++ {
		if inc.Append(oneOp()) != Yes {
			t.Fatalf("append %d refuted", i)
		}
	}
	st := inc.Stats()
	if st.Compactions < 40 {
		t.Fatalf("expected a compaction per quiescent append, got %d", st.Compactions)
	}
	if st.MaxSegment > 4 {
		t.Fatalf("segments should stay tiny under compaction, max was %d events", st.MaxSegment)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("no fallback expected on a clean sequential run, got %d", st.Fallbacks)
	}
	// The frontier state must carry across cuts: a read must see all 50 incs.
	id++
	read := spec.Operation{Method: spec.MethodRead, Uniq: id}
	good := history.History{
		{Kind: history.Invoke, Proc: 0, ID: id, Op: read},
		{Kind: history.Return, Proc: 0, ID: id, Op: read, Res: spec.ValueResp(50)},
	}
	if inc.Append(good) != Yes {
		t.Fatal("read of the true count refuted — frontier state lost")
	}
	id++
	stale := spec.Operation{Method: spec.MethodRead, Uniq: id}
	badRead := history.History{
		{Kind: history.Invoke, Proc: 0, ID: id, Op: stale},
		{Kind: history.Return, Proc: 0, ID: id, Op: stale, Res: spec.ValueResp(3)},
	}
	if inc.Append(badRead) != No {
		t.Fatal("stale read accepted — compaction unsound")
	}
}

// TestIncrementalReset reloads mid-stream, as the decoupled pipeline does on
// out-of-order publication.
func TestIncrementalReset(t *testing.T) {
	m := spec.Queue()
	inc := NewIncremental(m)
	h := trace.RandomLinearizable(m, 3, 2, 20)
	if got, want := inc.reset(h), IsLinearizable(m, h); (got == Yes) != want {
		t.Fatalf("reset verdict %v, full %v", got, want)
	}
	// Continue incrementally after the reset.
	ext := history.History{
		{Kind: history.Invoke, Proc: 3, ID: 9001, Op: spec.Operation{Method: spec.MethodDeq, Uniq: 9001}},
		{Kind: history.Return, Proc: 3, ID: 9001, Op: spec.Operation{Method: spec.MethodDeq, Uniq: 9001}, Res: spec.ValueResp(777)},
	}
	full := append(append(history.History{}, h...), ext...)
	if got, want := inc.Append(ext), IsLinearizable(m, full); (got == Yes) != want {
		t.Fatalf("post-reset append verdict %v, full %v", got, want)
	}
}

// TestIncrementalIllFormed: deltas that break §2 well-formedness refute the
// history (no GenLin object contains it) and surface an error.
func TestIncrementalIllFormed(t *testing.T) {
	m := spec.Counter()
	op1 := spec.Operation{Method: spec.MethodInc, Uniq: 1}
	op2 := spec.Operation{Method: spec.MethodInc, Uniq: 2}
	inc := NewIncremental(m)
	inc.Append(history.History{{Kind: history.Invoke, Proc: 0, ID: 1, Op: op1}})
	v := inc.Append(history.History{{Kind: history.Invoke, Proc: 0, ID: 2, Op: op2}})
	if v != No || inc.Err() == nil {
		t.Fatalf("overlapping invocations by one process admitted: verdict=%v err=%v", v, inc.Err())
	}
	inc2 := NewIncremental(m)
	v = inc2.Append(history.History{{Kind: history.Return, Proc: 0, ID: 7, Op: op1, Res: spec.OKResp()}})
	if v != No || inc2.Err() == nil {
		t.Fatalf("orphan response admitted: verdict=%v err=%v", v, inc2.Err())
	}
}
