package check

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// linearizableStringMemo is the pre-interning checker, kept as the
// equivalence reference: the Wing–Gong search with a map[string] memo keyed
// by the serialised linearized-set bitset concatenated with State.Key(),
// memoising from the first backtrack as the package's search does. The
// interned search must agree with it on Ok and on Explored — interning is
// exact, so the two searches must prune identically and walk the same
// configurations in the same order.
func linearizableStringMemo(m spec.Model, h history.History) Result {
	ops := h.Ops()
	if len(ops) == 0 {
		return Result{Ok: true}
	}

	head := &node{}
	nodes := make(map[uint64]*node, len(ops))
	tail := head
	addNode := func(n *node) {
		n.prev = tail
		tail.next = n
		tail = n
	}
	opIdxByID := make(map[uint64]int, len(ops))
	for i, o := range ops {
		opIdxByID[o.ID] = i
	}
	for _, e := range h {
		i := opIdxByID[e.ID]
		switch e.Kind {
		case history.Invoke:
			n := &node{opIdx: i, isCall: true}
			nodes[e.ID] = n
			addNode(n)
		case history.Return:
			call := nodes[e.ID]
			ret := &node{opIdx: i, match: call}
			call.match = ret
			addNode(ret)
		}
	}

	completeRemaining := 0
	for _, o := range ops {
		if o.Complete {
			completeRemaining++
		}
	}

	type frame struct {
		n    *node
		prev spec.State
		res  spec.Response
	}
	appendKey := func(dst []byte, b bitset) []byte {
		for _, w := range b {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return dst
	}
	state := m.Init()
	bs := make(bitset, (len(ops)+63)/64)
	memo := make(map[string]struct{})
	memoOn := false // the checker's policy: memoise from the first backtrack
	var stack []frame
	explored := 0
	keyBuf := make([]byte, 0, 8*len(bs)+64)

	success := func() Result {
		lin := make([]LinOp, len(stack))
		for i, f := range stack {
			o := ops[f.n.opIdx]
			lin[i] = LinOp{Proc: o.Proc, ID: o.ID, Op: o.Op, Res: f.res, Pending: !o.Complete}
		}
		return Result{Ok: true, Linearization: lin, Explored: explored}
	}

	entry := head.next
	for {
		if completeRemaining == 0 {
			return success()
		}
		if entry != nil && entry.isCall {
			o := ops[entry.opIdx]
			next, res, ok := state.Apply(o.Op)
			if ok && o.Complete && res != o.Res {
				ok = false
			}
			if ok {
				bs.set(entry.opIdx)
				keyBuf = appendKey(keyBuf[:0], bs)
				keyBuf = append(keyBuf, next.Key()...)
				key := string(keyBuf)
				if _, seen := memo[key]; !seen || !memoOn {
					if memoOn {
						memo[key] = struct{}{}
					}
					explored++
					stack = append(stack, frame{n: entry, prev: state, res: res})
					entry.lift()
					if o.Complete {
						completeRemaining--
					}
					state = next
					entry = head.next
					continue
				}
				bs.clear(entry.opIdx)
			}
			entry = entry.next
			continue
		}
		if len(stack) == 0 {
			return Result{Ok: false, Explored: explored}
		}
		memoOn = true
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f.n.unlift()
		if ops[f.n.opIdx].Complete {
			completeRemaining++
		}
		bs.clear(f.n.opIdx)
		state = f.prev
		entry = f.n.next
	}
}

// fuzzModels are the eight sequential objects the checker supports.
func fuzzModels() []spec.Model {
	return []spec.Model{
		spec.Queue(), spec.Stack(), spec.Set(), spec.PQueue(),
		spec.Counter(), spec.Register(0), spec.Consensus(), spec.SnapshotObj(4),
	}
}

// checkAgreement decides h with both searches and fails the test on any
// divergence. A Yes witness must also replay (soundness independent of the
// reference).
func checkAgreement(t *testing.T, m spec.Model, h history.History, label string) {
	t.Helper()
	got := Linearizable(m, h)
	want := linearizableStringMemo(m, h)
	if got.Ok != want.Ok {
		t.Fatalf("%s: interned search says Ok=%v, string-memo reference says Ok=%v", label, got.Ok, want.Ok)
	}
	if got.Explored != want.Explored {
		t.Fatalf("%s: interned search explored %d configurations, reference %d — pruning diverged",
			label, got.Explored, want.Explored)
	}
	if got.Ok && !ReplaySequential(m, h, got.Linearization) {
		t.Fatalf("%s: interned search produced a non-replayable witness", label)
	}
}

// TestInternedSearchEquivalence is the property suite of the interning
// refactor: across all eight models, random linearizable histories (several
// concurrency levels and sizes) and mutated violating variants, the interned
// search and the string-memo reference return identical verdicts and explore
// identical configuration counts.
func TestInternedSearchEquivalence(t *testing.T) {
	sizes := []int{8, 24, 60}
	procs := []int{2, 4}
	seedsPer := 6
	if testing.Short() {
		seedsPer = 2
	}
	for _, m := range fuzzModels() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			for _, p := range procs {
				for _, size := range sizes {
					for seed := int64(0); seed < int64(seedsPer); seed++ {
						h := trace.RandomLinearizable(m, 1000*seed+int64(13*p+size), p, size)
						label := fmt.Sprintf("p=%d size=%d seed=%d", p, size, seed)
						checkAgreement(t, m, h, label)
						// Mutations flip responses, producing (usually)
						// violating histories that exercise the exhaustive
						// backtracking and memo-hit paths.
						for ms := int64(0); ms < 2; ms++ {
							checkAgreement(t, m, trace.Mutate(h, seed*7+ms), label+" mutated")
						}
					}
				}
			}
		})
	}
}

// TestInternedSearchEquivalencePending covers histories with pending
// operations (the checker may linearize or drop them), which stress the
// completeRemaining bookkeeping of both searches identically.
func TestInternedSearchEquivalencePending(t *testing.T) {
	for _, m := range fuzzModels() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				h := trace.RandomLinearizable(m, seed, 3, 30)
				// Drop a suffix of returns to leave operations pending.
				cut := len(h) * 3 / 4
				trimmed := make(history.History, 0, len(h))
				returned := map[uint64]bool{}
				for i, e := range h {
					if i >= cut && e.Kind == history.Return {
						continue
					}
					if e.Kind == history.Return {
						returned[e.ID] = true
					}
					trimmed = append(trimmed, e)
				}
				checkAgreement(t, m, trimmed, fmt.Sprintf("pending seed=%d", seed))
			}
		})
	}
}

// FuzzInternedSearch drives the same equivalence from the native fuzzer: the
// input picks a model, concurrency, size and mutation seed.
func FuzzInternedSearch(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(40), int64(1))
	f.Add(uint8(1), uint8(2), uint8(60), int64(9))
	f.Add(uint8(7), uint8(4), uint8(24), int64(3))
	f.Fuzz(func(t *testing.T, which, procs, size uint8, seed int64) {
		models := fuzzModels()
		m := models[int(which)%len(models)]
		p := 2 + int(procs)%4
		n := 4 + int(size)%64
		h := trace.RandomLinearizable(m, seed, p, n)
		checkAgreement(t, m, h, "fuzz")
		checkAgreement(t, m, trace.Mutate(h, seed+1), "fuzz mutated")
	})
}
