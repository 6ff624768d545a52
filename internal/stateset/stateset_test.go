package stateset

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/spec"
)

// collideState implements spec.Fingerprinted with an adversarial constant
// fingerprint: every state hashes alike, so correctness must come entirely
// from the exact EqualState confirmation.
type collideState struct{ v int64 }

func (c collideState) Apply(spec.Operation) (spec.State, spec.Response, bool) {
	return nil, spec.Response{}, false
}
func (c collideState) Key() string         { return fmt.Sprintf("x:%d", c.v) }
func (c collideState) Fingerprint() uint64 { return 0xDEAD }
func (c collideState) EqualState(o spec.State) bool {
	t, ok := o.(collideState)
	return ok && t == c
}

// keyedState has no Fingerprinted implementation: the interner must fall
// back to canonical keys.
type keyedState struct{ v int64 }

func (k keyedState) Apply(spec.Operation) (spec.State, spec.Response, bool) {
	return nil, spec.Response{}, false
}
func (k keyedState) Key() string { return fmt.Sprintf("k:%d", k.v) }

func TestInternerDedupes(t *testing.T) {
	in := NewInterner()
	st := spec.Queue().Init()
	id0, fresh := in.Intern(st)
	if !fresh || id0 != 0 {
		t.Fatalf("first intern: id=%d fresh=%v", id0, fresh)
	}
	// A distinct chain reaching the same abstract state gets the same id.
	st2 := spec.Queue().Init()
	if id, fresh := in.Intern(st2); fresh || id != id0 {
		t.Fatalf("equal state re-interned: id=%d fresh=%v", id, fresh)
	}
	next, _, _ := st.Apply(spec.Operation{Method: spec.MethodEnq, Arg: 9, Uniq: 1})
	id1, fresh := in.Intern(next)
	if !fresh || id1 == id0 {
		t.Fatalf("distinct state shares id: id=%d fresh=%v", id1, fresh)
	}
	if in.Len() != 2 || in.At(id1) != next {
		t.Fatalf("canonical representatives broken")
	}
}

// TestInternerCollisionStress interns many states that all share one
// fingerprint (forcing long probe chains and table growth) and checks ids
// stay exact and stable.
func TestInternerCollisionStress(t *testing.T) {
	in := NewInterner()
	const n = 500
	ids := make([]uint32, n)
	for i := 0; i < n; i++ {
		id, fresh := in.Intern(collideState{v: int64(i)})
		if !fresh {
			t.Fatalf("state %d conflated under fingerprint collision", i)
		}
		ids[i] = id
	}
	if in.TableLen() <= 64 {
		t.Fatalf("table never grew: %d slots for %d states", in.TableLen(), n)
	}
	for i := 0; i < n; i++ {
		if id, fresh := in.Intern(collideState{v: int64(i)}); fresh || id != ids[i] {
			t.Fatalf("state %d: id drifted after growth (%d -> %d, fresh=%v)", i, ids[i], id, fresh)
		}
	}
}

// tunableFPState lets a test force an arbitrary fingerprint.
type tunableFPState struct{ fp uint64 }

func (s tunableFPState) Apply(spec.Operation) (spec.State, spec.Response, bool) {
	return nil, spec.Response{}, false
}
func (s tunableFPState) Key() string         { return "t" }
func (s tunableFPState) Fingerprint() uint64 { return s.fp }
func (s tunableFPState) EqualState(o spec.State) bool {
	x, ok := o.(tunableFPState)
	return ok && x == s
}

// TestInternerMixedTypeCollision: a keyed (non-Fingerprinted) probe whose
// fallback hash collides with an already-interned Fingerprinted state must
// probe past it, not read a keys column that does not exist yet.
func TestInternerMixedTypeCollision(t *testing.T) {
	in := NewInterner()
	k := keyedState{v: 1}
	id0, _ := in.Intern(tunableFPState{fp: hashString(k.Key())})
	id1, fresh := in.Intern(k) // pre-guard this panicked on the nil keys column
	if !fresh || id1 == id0 {
		t.Fatalf("keyed state conflated with colliding fingerprinted state: id0=%d id1=%d fresh=%v",
			id0, id1, fresh)
	}
	if id, fresh := in.Intern(k); fresh || id != id1 {
		t.Fatalf("keyed state not found after mixed-type collision insert")
	}
}

func TestInternerKeyFallback(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 200; i++ {
		if _, fresh := in.Intern(keyedState{v: int64(i % 50)}); fresh != (i < 50) {
			t.Fatalf("key-fallback interning wrong at %d", i)
		}
	}
	if in.Len() != 50 {
		t.Fatalf("expected 50 distinct states, got %d", in.Len())
	}
}

func TestMemoSetInsertAndGrow(t *testing.T) {
	const words = 3
	m := NewMemoSet(words)
	rng := rand.New(rand.NewSource(1))
	type cfg struct {
		bs [words]uint64
		id uint32
	}
	var cfgs []cfg
	for i := 0; i < 2000; i++ {
		var c cfg
		c.bs = [words]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
		c.id = uint32(rng.Intn(64))
		cfgs = append(cfgs, c)
		if !m.Insert(c.bs[:], c.id) {
			t.Fatalf("fresh configuration %d reported seen", i)
		}
	}
	if m.SlotsLen() <= 64 {
		t.Fatalf("memo table never grew")
	}
	if m.Len() != len(cfgs) {
		t.Fatalf("Len=%d want %d", m.Len(), len(cfgs))
	}
	for i, c := range cfgs {
		if m.Insert(c.bs[:], c.id) {
			t.Fatalf("configuration %d lost after growth", i)
		}
	}
	// Same bitset under a different id is a different configuration.
	if !m.Insert(cfgs[0].bs[:], cfgs[0].id+1000) {
		t.Fatalf("id is not part of the configuration identity")
	}
}

// TestMemoSetEpochReuse checks that Reset invalidates in O(1) and that the
// tombstoned slots are reclaimed in place across generations.
func TestMemoSetEpochReuse(t *testing.T) {
	m := NewMemoSet(2)
	bs := []uint64{7, 9}
	for gen := 0; gen < 100; gen++ {
		for id := uint32(0); id < 40; id++ {
			if !m.Insert(bs, id) {
				t.Fatalf("gen %d: stale entry for id %d survived Reset", gen, id)
			}
			if m.Insert(bs, id) {
				t.Fatalf("gen %d: fresh entry for id %d not found", gen, id)
			}
		}
		if m.Len() != 40 {
			t.Fatalf("gen %d: Len=%d want 40", gen, m.Len())
		}
		m.Reset(2)
	}
	// 100 generations of 40 entries reused the same slots: the table must
	// not have grown past what one generation needs.
	if m.SlotsLen() > 128 {
		t.Fatalf("tombstones not reused: table grew to %d slots", m.SlotsLen())
	}
}

func TestMemoSetEpochWraparound(t *testing.T) {
	m := NewMemoSet(1)
	bs := []uint64{42}
	if !m.Insert(bs, 1) {
		t.Fatal("fresh insert reported seen")
	}
	m.SetEpochForTest(^uint32(0)) // pretend 2^32-1 generations passed
	if !m.Insert(bs, 2) {
		t.Fatal("insert at max epoch reported seen")
	}
	m.Reset(1) // wraps: must clear eagerly, not resurrect epoch-1 slots
	if !m.Insert(bs, 1) {
		t.Fatal("entry from a wrapped-around generation resurrected")
	}
}

func TestMemoSetZeroWords(t *testing.T) {
	m := NewMemoSet(0)
	if !m.Insert(nil, 3) || m.Insert(nil, 3) || !m.Insert(nil, 4) {
		t.Fatal("zero-word configurations must be keyed by id alone")
	}
}

func TestMemoSetResetChangesWidth(t *testing.T) {
	m := NewMemoSet(1)
	if !m.Insert([]uint64{1}, 0) {
		t.Fatal("fresh insert reported seen")
	}
	m.Reset(3)
	wide := []uint64{1, 2, 3}
	if !m.Insert(wide, 0) || m.Insert(wide, 0) {
		t.Fatal("width change across Reset broken")
	}
}

// TestInternerReset checks that a reset table forgets everything (ids are
// reissued from zero, stale entries never match) while keeping capacity.
func TestInternerReset(t *testing.T) {
	in := NewInterner()
	reg := spec.Register(0)
	var ids []uint32
	st := reg.Init()
	for i := 0; i < 100; i++ {
		next, _, _ := st.Apply(spec.Operation{Method: spec.MethodWrite, Arg: int64(i), Uniq: uint64(i + 1)})
		id, fresh := in.Intern(next)
		if !fresh {
			t.Fatalf("state %d: expected fresh id", i)
		}
		ids = append(ids, id)
		st = next
	}
	if in.Len() != 100 {
		t.Fatalf("Len=%d, want 100", in.Len())
	}
	capBefore := in.TableLen()
	in.Reset()
	if in.Len() != 0 {
		t.Fatalf("Len=%d after Reset, want 0", in.Len())
	}
	if in.TableLen() != capBefore {
		t.Fatalf("Reset changed table capacity %d -> %d", capBefore, in.TableLen())
	}
	// Re-interning after a reset issues dense ids from zero again.
	id, fresh := in.Intern(reg.Init())
	if !fresh || id != 0 {
		t.Fatalf("post-reset intern: id=%d fresh=%v, want 0,true", id, fresh)
	}
	_ = ids
}
