package spec

// Chain ownership handoff for parallel searches.
//
// States derived from one Init call form a *chain* that may share interior
// structure (backing arrays, successor caches) and is therefore confined to
// one goroutine at a time (see the State contract). A parallel search that
// wants to explore from a state concurrently with other searches over the
// same chain must first detach it: Detach returns a state with the same
// abstract value whose chain is disjoint from the receiver's, so the caller
// owns everything the returned state can ever reach through Apply.
//
// Detach itself only reads the source state, so several goroutines may
// detach different states of one chain concurrently — as long as no
// goroutine is Applying on that chain at the same time. The parallel segment
// engine in internal/check upholds this by detaching at worker start and
// applying only within the detached chain from then on.

// Detachable is implemented by states whose chains carry shared interior
// structure. Detach returns an equal abstract state rooting a fresh,
// unshared chain.
type Detachable interface {
	State
	Detach() State
}

// Detach returns a state abstractly equal to st that is safe to hand to
// another goroutine as the root of an independent chain. States that do not
// implement Detachable are immutable values with no interior sharing
// (counter, register, consensus, snapshot) and are returned as-is.
func Detach(st State) State {
	if d, ok := st.(Detachable); ok {
		return d.Detach()
	}
	return st
}

// Detach copies the live window into a fresh backing with a fresh arena,
// preserving the incremental fingerprint fields; the successor caches start
// empty, so nothing the copy reaches is shared with the source chain.
func (s *seqState) Detach() State {
	w := s.window()
	nb := &seqBuf{data: append(make([]int64, 0, len(w)+8), w...), arena: &seqArena{}}
	n := nb.arena.alloc()
	*n = seqState{kind: s.kind, start: 0, end: int32(len(nb.data)), buf: nb, hash: s.hash, pw: s.pw}
	return n
}
