package spec

import (
	"math/rand"
	"testing"
)

// opsFor returns a generator of random legal-ish operations for the model.
func opsFor(name string, rng *rand.Rand) func() Operation {
	var uniq uint64
	next := func(method string, arg int64) Operation {
		uniq++
		return Operation{Method: method, Arg: arg, Uniq: uniq}
	}
	switch name {
	case "queue":
		return func() Operation {
			if rng.Intn(3) == 0 {
				return next(MethodDeq, 0)
			}
			return next(MethodEnq, int64(rng.Intn(8)))
		}
	case "stack":
		return func() Operation {
			if rng.Intn(3) == 0 {
				return next(MethodPop, 0)
			}
			return next(MethodPush, int64(rng.Intn(8)))
		}
	case "set":
		return func() Operation {
			switch rng.Intn(3) {
			case 0:
				return next(MethodRemove, int64(rng.Intn(8)))
			case 1:
				return next(MethodContains, int64(rng.Intn(8)))
			default:
				return next(MethodAdd, int64(rng.Intn(8)))
			}
		}
	case "pqueue":
		return func() Operation {
			if rng.Intn(3) == 0 {
				return next(MethodMin, 0)
			}
			return next(MethodInsert, int64(rng.Intn(8)))
		}
	case "counter":
		return func() Operation {
			if rng.Intn(2) == 0 {
				return next(MethodRead, 0)
			}
			return next(MethodInc, 0)
		}
	case "register":
		return func() Operation {
			if rng.Intn(2) == 0 {
				return next(MethodRead, 0)
			}
			return next(MethodWrite, int64(rng.Intn(8)))
		}
	case "consensus":
		return func() Operation { return next(MethodDecide, int64(rng.Intn(8))) }
	default: // snapshot
		return func() Operation {
			if rng.Intn(2) == 0 {
				return next(MethodRead, 0)
			}
			return next(MethodWrite, PackUpdate(rng.Intn(4), int64(rng.Intn(8))))
		}
	}
}

func detachModels() []Model {
	return []Model{Queue(), Stack(), Set(), PQueue(), Counter(), Register(0), Consensus(), SnapshotObj(4)}
}

// TestDetachEquivalence walks random chains and checks, at every step, that
// the detached copy is abstractly identical (Key, fingerprint, EqualState
// both ways) and that the two chains evolve identically but independently:
// applying further operations to the detached chain never perturbs the
// source chain's behaviour.
func TestDetachEquivalence(t *testing.T) {
	for _, m := range detachModels() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				gen := opsFor(m.Name(), rng)
				st := m.Init()
				for step := 0; step < 60; step++ {
					d := Detach(st)
					if d.Key() != st.Key() {
						t.Fatalf("step %d: detached key %q != source key %q", step, d.Key(), st.Key())
					}
					df, okd := d.(Fingerprinted)
					sf, oks := st.(Fingerprinted)
					if okd != oks {
						t.Fatalf("step %d: Fingerprinted lost across Detach", step)
					}
					if okd {
						if df.Fingerprint() != sf.Fingerprint() {
							t.Fatalf("step %d: fingerprints diverged", step)
						}
						if !df.EqualState(st) || !sf.EqualState(d) {
							t.Fatalf("step %d: EqualState not symmetric across Detach", step)
						}
					}
					// Drive the detached chain ahead; the source must not move.
					srcKey := st.Key()
					dd := d
					for i := 0; i < 6; i++ {
						op := gen()
						next, _, ok := dd.Apply(op)
						if ok {
							dd = next
						}
					}
					if st.Key() != srcKey {
						t.Fatalf("step %d: driving the detached chain mutated the source (key %q -> %q)",
							step, srcKey, st.Key())
					}
					// Advance the source chain; both must produce the same
					// transition for the same op.
					op := gen()
					n1, r1, ok1 := st.Apply(op)
					n2, r2, ok2 := d.Apply(op)
					if ok1 != ok2 || r1 != r2 {
						t.Fatalf("step %d: op %v: source (%v,%v) vs detached (%v,%v)", step, op, r1, ok1, r2, ok2)
					}
					if ok1 {
						if n1.Key() != n2.Key() {
							t.Fatalf("step %d: successor keys diverged: %q vs %q", step, n1.Key(), n2.Key())
						}
						st = n1
					}
				}
			}
		})
	}
}

// TestDetachSharedBacking pins the case Detach exists for: two windows of one
// chain detached and extended divergently from different owners.
func TestDetachSharedBacking(t *testing.T) {
	st := Queue().Init()
	var states []State
	cur := st
	for i := 0; i < 5; i++ {
		next, _, ok := cur.Apply(Operation{Method: MethodEnq, Arg: int64(i), Uniq: uint64(i + 1)})
		if !ok {
			t.Fatal("enq refused")
		}
		states = append(states, next)
		cur = next
	}
	// Detach two interior windows and push different values through each.
	a, b := Detach(states[2]), Detach(states[2])
	na, _, _ := a.Apply(Operation{Method: MethodEnq, Arg: 77, Uniq: 100})
	nb, _, _ := b.Apply(Operation{Method: MethodEnq, Arg: 88, Uniq: 101})
	if na.Key() == nb.Key() {
		t.Fatal("divergent pushes produced equal states")
	}
	if want := "q:0,1,2,77"; na.Key() != want {
		t.Fatalf("detached chain a: key %q, want %q", na.Key(), want)
	}
	if want := "q:0,1,2,88"; nb.Key() != want {
		t.Fatalf("detached chain b: key %q, want %q", nb.Key(), want)
	}
	// The source chain's deeper window is untouched.
	if want := "q:0,1,2,3,4"; states[4].Key() != want {
		t.Fatalf("source chain corrupted: %q, want %q", states[4].Key(), want)
	}
	// Value states detach to themselves.
	c := Counter().Init()
	if Detach(c) != c {
		t.Fatal("value state did not detach to itself")
	}
}

// arenaOf returns the node arena a window state allocates from.
func arenaOf(t *testing.T, st State) *seqArena {
	t.Helper()
	s, ok := st.(*seqState)
	if !ok {
		t.Fatalf("%T is not a window state", st)
	}
	return s.buf.arena
}

// branchOut applies a few different operations from every state it reaches,
// so the walk forces divergence copies and out-of-order inserts, and returns
// every state reached.
func branchOut(root State, gen func() Operation, depth int) []State {
	reached := []State{root}
	level := []State{root}
	for d := 0; d < depth; d++ {
		var next []State
		for _, st := range level {
			for i := 0; i < 3; i++ {
				if n, _, ok := st.Apply(gen()); ok && n != st {
					next = append(next, n)
				}
			}
		}
		reached = append(reached, next...)
		level = next
	}
	return reached
}

// TestDetachOpensFreshArena pins the chain-ownership rule for the node
// arena: every state of a chain — across every buf a divergence opened —
// allocates from the chain's one arena, and Detach never hands that arena to
// the copy. The second half runs two detached chains on two goroutines while
// the source chain is only read, which is exactly what the parallel engine
// does; a shared arena there is a data race -race reports.
func TestDetachOpensFreshArena(t *testing.T) {
	for _, m := range []Model{Queue(), Stack(), Set(), PQueue()} {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			gen := opsFor(m.Name(), rng)
			root := m.Init()
			src := arenaOf(t, root)
			chain := branchOut(root, gen, 4)
			bufs := map[*seqBuf]bool{}
			for _, st := range chain {
				if arenaOf(t, st) != src {
					t.Fatalf("state %q of the source chain allocates from a different arena", st.Key())
				}
				bufs[st.(*seqState).buf] = true
			}
			if len(bufs) < 2 {
				t.Fatal("walk never diverged: the test did not exercise a second buf")
			}
			seen := map[*seqArena]bool{src: true}
			for _, st := range chain[:min(8, len(chain))] {
				d := Detach(st)
				da := arenaOf(t, d)
				if seen[da] {
					t.Fatalf("Detach(%q) shares an arena with its source chain or an earlier copy", st.Key())
				}
				seen[da] = true
				for _, r := range branchOut(d, gen, 3) {
					if arenaOf(t, r) != da {
						t.Fatalf("state %q reached from a detached copy left the copy's arena", r.Key())
					}
				}
			}

			mid := chain[len(chain)/2]
			done := make(chan struct{})
			for g := 0; g < 2; g++ {
				go func(seed int64) {
					defer func() { done <- struct{}{} }()
					branchOut(Detach(mid), opsFor(m.Name(), rand.New(rand.NewSource(seed))), 5)
				}(int64(g))
			}
			<-done
			<-done
		})
	}
}

// TestDivergeAtEveryLength forces a divergence copy (and, for the sorted
// models, an out-of-order insert and an interior remove) from windows of
// every length up to past the arena's largest word chunk, so the copy is
// served by every rung of the chunk ladder and by the own-backing path, and
// checks each result against the canonical key of a chain that never shared
// anything.
func TestDivergeAtEveryLength(t *testing.T) {
	push := map[string]string{"queue": MethodEnq, "stack": MethodPush, "set": MethodAdd, "pqueue": MethodInsert}
	for _, m := range []Model{Queue(), Stack(), Set(), PQueue()} {
		st := m.Init()
		var uniq uint64
		apply := func(s State, method string, arg int64) State {
			uniq++
			n, _, ok := s.Apply(Operation{Method: method, Arg: arg, Uniq: uniq})
			if !ok {
				t.Fatalf("%s: %s(%d) refused on %q", m.Name(), method, arg, s.Key())
			}
			return n
		}
		for length := 0; length <= wordChunkMax+40; length++ {
			// Two different pushes from one state: the second must copy.
			a := apply(st, push[m.Name()], int64(2*length+1000))
			b := apply(st, push[m.Name()], int64(2*length+1001))
			// An element below every other one: out-of-order for set/pqueue.
			c := apply(st, push[m.Name()], int64(-length-1))
			fresh := Detach(st)
			for _, got := range []struct {
				st  State
				arg int64
			}{{a, int64(2*length + 1000)}, {b, int64(2*length + 1001)}, {c, int64(-length - 1)}} {
				want := apply(Detach(fresh), push[m.Name()], got.arg)
				if got.st.Key() != want.Key() {
					t.Fatalf("%s length %d: pushed %d: key %q, unshared chain says %q", m.Name(), length, got.arg, got.st.Key(), want.Key())
				}
			}
			if m.Name() == "set" && length >= 2 {
				mid := int64(2*(length/2) + 1000)
				if got, want := apply(a, MethodRemove, mid), apply(Detach(a), MethodRemove, mid); got.Key() != want.Key() {
					t.Fatalf("set length %d: interior remove: key %q, unshared chain says %q", length, got.Key(), want.Key())
				}
			}
			st = a
		}
	}
}
