package spec

import (
	"math/rand"
	"testing"
)

// codecOp draws one random operation legal for the model under test; states
// for the round-trip walk are whatever random legal sequences reach.
func codecOp(m Model, rng *rand.Rand) Operation {
	v := int64(rng.Intn(9))
	switch m.(type) {
	case queueModel:
		return Operation{Method: []string{MethodEnq, MethodDeq}[rng.Intn(2)], Arg: v}
	case stackModel:
		return Operation{Method: []string{MethodPush, MethodPop}[rng.Intn(2)], Arg: v}
	case setModel:
		return Operation{Method: []string{MethodAdd, MethodRemove, MethodContains}[rng.Intn(3)], Arg: v}
	case pqueueModel:
		return Operation{Method: []string{MethodInsert, MethodMin}[rng.Intn(2)], Arg: v}
	case counterModel:
		return Operation{Method: []string{MethodInc, MethodRead}[rng.Intn(2)]}
	case registerModel:
		return Operation{Method: []string{MethodWrite, MethodRead}[rng.Intn(2)], Arg: v}
	case consensusModel:
		return Operation{Method: MethodDecide, Arg: v}
	case snapshotModel:
		return Operation{Method: MethodWrite, Arg: PackUpdate(rng.Intn(3), v)}
	}
	panic("no menu for model " + m.Name())
}

// TestStateCodecRoundTrip: DecodeState inverts EncodeState on every state a
// random legal walk reaches, for every model with a codec — equal Key, and
// (the property checkpoint restore leans on) the identical fingerprint, so a
// decoded state interns and memoises exactly like the original.
func TestStateCodecRoundTrip(t *testing.T) {
	models := []Model{
		Queue(), Stack(), Set(), PQueue(),
		Counter(), Register(0), Consensus(), SnapshotObj(3),
	}
	for _, m := range models {
		rng := rand.New(rand.NewSource(int64(len(m.Name()))))
		st := m.Init()
		for step := 0; step < 60; step++ {
			enc := EncodeState(st)
			got, err := DecodeState(m, enc)
			if err != nil {
				t.Fatalf("%s step %d: decode %q: %v", m.Name(), step, enc, err)
			}
			if got.Key() != st.Key() {
				t.Fatalf("%s step %d: decoded key %q, want %q", m.Name(), step, got.Key(), st.Key())
			}
			if fp, ok := st.(Fingerprinted); ok {
				gfp, ok := got.(Fingerprinted)
				if !ok {
					t.Fatalf("%s step %d: decoded state lost Fingerprinted", m.Name(), step)
				}
				if gfp.Fingerprint() != fp.Fingerprint() {
					t.Fatalf("%s step %d: decoded fingerprint %x, want %x (key %q)",
						m.Name(), step, gfp.Fingerprint(), fp.Fingerprint(), enc)
				}
				if !fp.EqualState(got) {
					t.Fatalf("%s step %d: decoded state not EqualState to original (key %q)", m.Name(), step, enc)
				}
			}
			next, _, ok := st.Apply(codecOp(m, rng))
			if ok {
				st = next
			}
		}
	}
}

// TestStateCodecRejects: corrupted or cross-model encodings fail loudly,
// never decode into a silently wrong state.
func TestStateCodecRejects(t *testing.T) {
	cases := []struct {
		m   Model
		enc string
	}{
		{Queue(), "s:1,2"},      // stack state handed to the queue codec
		{Queue(), "1,2"},        // no kind prefix
		{Queue(), "q:1,x"},      // bad integer
		{Set(), "e:2,1"},        // not strictly ascending
		{Set(), "e:1,1"},        // duplicate
		{PQueue(), "p:3,1"},     // not sorted
		{Counter(), "c:"},       // empty scalar
		{Register(0), "r:abc"},  // bad integer
		{Consensus(), "d:x"},    // neither _ nor an integer
		{SnapshotObj(3), "n:1"}, // wrong arity for a 3-entry snapshot
	}
	for _, c := range cases {
		if _, err := DecodeState(c.m, c.enc); err == nil {
			t.Errorf("%s: decode %q unexpectedly succeeded", c.m.Name(), c.enc)
		}
	}
}

// TestResidentReplays: inserting a state's Resident values one after another
// into Init reaches that state, for every state a random legal walk of a
// per-value model reaches; another model's state has no resident values;
// and appending to the returned slice leaves the states sharing its backing
// untouched.
func TestResidentReplays(t *testing.T) {
	insert := map[string]string{"queue": MethodEnq, "stack": MethodPush, "set": MethodAdd, "pqueue": MethodInsert}
	rng := rand.New(rand.NewSource(3))
	for _, m := range []Model{Queue(), Stack(), Set(), PQueue()} {
		pv := m.(PerValueMatched)
		if _, ok := pv.Resident(Counter().Init()); ok {
			t.Fatalf("%s: Resident accepted a counter state", m.Name())
		}
		for walk := 0; walk < 20; walk++ {
			st := m.Init()
			for step := 0; step < 30; step++ {
				next, _, ok := st.Apply(codecOp(m, rng))
				if !ok {
					t.Fatalf("%s: random walk op rejected", m.Name())
				}
				st = next
				vals, ok := pv.Resident(st)
				if !ok {
					t.Fatalf("%s: no resident values for %s", m.Name(), st.Key())
				}
				key := st.Key()
				// The child extends st's backing in place; an append through
				// an uncapped slice would overwrite its new value.
				child, _, _ := st.Apply(Operation{Method: insert[m.Name()], Arg: 1000})
				childKey := child.Key()
				_ = append(vals, 99)
				if child.Key() != childKey {
					t.Fatalf("%s: appending to Resident's slice changed %s to %s", m.Name(), childKey, child.Key())
				}
				re := m.Init()
				for _, v := range vals {
					re, _, _ = re.Apply(Operation{Method: insert[m.Name()], Arg: v})
				}
				if !re.(Fingerprinted).EqualState(st) {
					t.Fatalf("%s: inserting Resident %v reaches %s, want %s", m.Name(), vals, re.Key(), key)
				}
			}
		}
	}
}
