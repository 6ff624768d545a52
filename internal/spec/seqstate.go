package spec

import "sort"

// This file implements the four slice-backed models (queue, stack, set,
// priority queue) as persistent, structurally-shared windows over an
// append-only backing array, with a cached incremental 64-bit fingerprint.
// The representation exists for the linearizability search in internal/check:
// the Wing–Gong DFS applies δ once per explored configuration, and with the
// original copy-per-step states every Apply paid an O(n) slice copy plus an
// O(n) Key() string per memo probe. A window state makes the common
// transitions O(1) allocation:
//
//   - push at the end (Enq, Push, in-order Insert/Add) extends the shared
//     backing in place when this state is the deepest window over it, or
//     reuses the slot when another branch already wrote the same value there;
//     only genuine branch divergence (two branches pushing different values
//     from the same state) copies the window;
//   - pop at the front (Deq, ExtractMin, Remove of the minimum) and pop at
//     the end (Pop) just move the window bounds — always shared, never copied;
//   - every state carries its fingerprint, maintained incrementally in O(1)
//     per transition, which feeds the intern probe in internal/stateset.
//
// States remain immutable values in the sense the State contract requires:
// Apply never changes the abstract state of its receiver, and windows over a
// shared backing never observe each other's extensions (a window only reads
// [start, end)). Three pieces of interior mutability are invisible to the
// abstraction but make sharing work, and all confine a state *chain* (all
// states transitively derived from one Init) to a single goroutine at a time:
// extending the backing array, the per-state successor cache (Apply
// memoises its last value-carrying successor and its pop successor, so DFS
// re-visits allocate nothing), and the chain's node arena (seqArena), which
// every state and every divergence copy is carved out of. Distinct chains
// are fully independent — concurrent checkers each call Model.Init and never
// share structure.
//
// Fingerprints are NOT trusted for equality anywhere: they only route the
// intern-table probe (internal/stateset), which confirms with EqualState.
// Sequence-valued models (queue, stack) use a polynomial hash with an odd —
// hence invertible mod 2^64 — multiplier so both ends support O(1) updates;
// multiset/set models (pqueue, set) use a commutative sum of mixed elements,
// which is order-independent by construction.

// seqR is the polynomial hash multiplier; odd, so it has an inverse mod 2^64
// and removing an element from either end of a sequence is O(1).
const seqR uint64 = 0x9E3779B97F4A7C15

// seqRInv is seqR's multiplicative inverse mod 2^64 (Newton iteration doubles
// the number of correct low bits each round; 6 rounds from an odd seed cover
// 64 bits).
var seqRInv = func() uint64 {
	inv := seqR
	for i := 0; i < 6; i++ {
		inv *= 2 - seqR*inv
	}
	return inv
}()

// mix64 is the splitmix64 finalizer: the per-element mixer of every
// fingerprint, so single-element differences flip about half the bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func mixVal(v int64) uint64 { return mix64(uint64(v)) }

// seqKind discriminates the model a window state belongs to.
type seqKind uint8

const (
	seqQueue seqKind = iota
	seqStack
	seqSet
	seqPQueue
)

// keyPrefix preserves the canonical Key() encodings of the original
// copy-per-step states, which tests and the longitudinal experiment records
// rely on.
var keyPrefix = [...]byte{seqQueue: 'q', seqStack: 's', seqSet: 'e', seqPQueue: 'p'}

// seqBuf is one backing array shared by the windows over it. A chain starts
// with one buf and opens another wherever a window has to be copied (branch
// divergence, out-of-order insert, compaction); every buf of the chain
// points at the chain's single node arena.
type seqBuf struct {
	data  []int64
	arena *seqArena
}

// seqArena is the chunked allocator of one chain: its states, and the bufs
// and backing words a divergence copies into. Allocating in chunks turns the
// per-Apply interface-boxing allocation, and the two allocations per
// divergence, into one slice allocation per chunk. It belongs to the chain,
// not to a buf: a backtracking search opens a buf per divergence that hosts
// one or two states, and a state chunk per buf was over half of the search's
// allocated bytes. A chunk is dropped from the arena once full, so it lives
// exactly as long as something inside it is reachable — a long-lived chain
// (an Oracle driving a 100k-op stream) does not accumulate dead states, only
// the backing array itself. Like the backing arrays, the arena is interior
// mutability confined to the goroutine that owns the chain; Detach opens a
// fresh one.
type seqArena struct {
	states []seqState
	bufs   []seqBuf
	words  []int64
}

// Chunks grow fourfold from the minimum to the maximum: most chains are
// short (one monitored object's first few operations, a search that never
// diverges), and full-size first chunks would be mostly waste on them.
const (
	stateChunkMin, stateChunkMax = 8, 64
	bufChunkMin, bufChunkMax     = 4, 64
	wordChunkMin, wordChunkMax   = 64, 1024
)

// nextChunk is the capacity of the chunk that replaces a full one of
// capacity prev.
func nextChunk(prev, min, max int) int {
	switch n := 4 * prev; {
	case n < min:
		return min
	case n > max:
		return max
	default:
		return n
	}
}

func (a *seqArena) alloc() *seqState {
	if len(a.states) == cap(a.states) {
		a.states = make([]seqState, 0, nextChunk(cap(a.states), stateChunkMin, stateChunkMax))
	}
	a.states = a.states[:len(a.states)+1]
	return &a.states[len(a.states)-1]
}

// newBuf opens a further buf of the arena's chain, holding the concatenation
// of parts with room to grow. The backing comes out of the word chunk with
// its capacity pinned, so growing past the room reallocates it like any
// slice and never runs into a neighbour.
func (a *seqArena) newBuf(parts ...[]int64) *seqBuf {
	n := 8
	for _, p := range parts {
		n += len(p)
	}
	if len(a.bufs) == cap(a.bufs) {
		a.bufs = make([]seqBuf, 0, nextChunk(cap(a.bufs), bufChunkMin, bufChunkMax))
	}
	a.bufs = a.bufs[:len(a.bufs)+1]
	nb := &a.bufs[len(a.bufs)-1]
	nb.arena = a
	if 4*n > wordChunkMax {
		nb.data = make([]int64, 0, n) // a window this long gets its own backing
	} else {
		if cap(a.words)-len(a.words) < n {
			// At least four such windows per chunk, whatever the ladder says.
			a.words = make([]int64, 0, max(nextChunk(cap(a.words), wordChunkMin, wordChunkMax), 4*n))
		}
		off := len(a.words)
		a.words = a.words[:off+n]
		nb.data = a.words[off : off : off+n]
	}
	for _, p := range parts {
		nb.data = append(nb.data, p...)
	}
	return nb
}

// compactAt is the dead-prefix bound past which a front pop copies the live
// window into a fresh backing instead of sliding further: it keeps a
// long-lived chain's backing O(live) instead of O(ever pushed). Large enough
// that searches (whose windows are segment-sized) never hit it.
const compactAt = 4096

// seqState is one window [start, end) over a shared backing. hash is the
// state's fingerprint; pw caches seqR^(len-1) for the queue's front removal
// (unused by the other kinds). The cache fields memoise successors: popNext
// for the kind's argument-less consumer (Deq/Pop/ExtractMin), valNext for the
// last value-carrying transition (keyed by method code+argument — Uniq is
// deliberately ignored, δ does not depend on it). Responses are recomputed
// from the parent window rather than stored, and the method is a one-byte
// code, keeping the struct at one cache line with only three pointer words
// (GC scan cost is part of the checker's constant factor).
type seqState struct {
	buf     *seqBuf
	popNext *seqState
	valNext *seqState
	hash    uint64
	pw      uint64
	valArg  int64
	start   int32
	end     int32
	kind    seqKind
	valMeth methCode
}

// methCode is the one-byte encoding of the value-carrying methods that can
// occupy the valNext cache slot; mcNone marks the slot empty.
type methCode uint8

const (
	mcNone methCode = iota
	mcPush          // Enq, Push, Insert: the kind determines which
	mcAdd
	mcRemove
)

func newSeqState(k seqKind) *seqState {
	return &seqState{kind: k, buf: &seqBuf{arena: &seqArena{}}}
}

func (s *seqState) window() []int64 { return s.buf.data[s.start:s.end] }
func (s *seqState) size() int       { return int(s.end - s.start) }

// pushEnd returns the window extended by v at the end, with the given
// fingerprint fields. It extends the shared backing in place when possible,
// reuses a slot another branch already wrote with the same value, and copies
// the window only on branch divergence.
func (s *seqState) pushEnd(v int64, hash, pw uint64) *seqState {
	b := s.buf
	switch {
	case int(s.end) == len(b.data):
		b.data = append(b.data, v)
	case b.data[s.end] == v:
		// Another branch already extended this window with the same value;
		// the slot is immutable once written, so the window can cover it.
	default:
		nb := b.arena.newBuf(s.window(), []int64{v})
		n := b.arena.alloc()
		*n = seqState{kind: s.kind, start: 0, end: int32(len(nb.data)), buf: nb, hash: hash, pw: pw}
		return n
	}
	n := b.arena.alloc()
	*n = seqState{kind: s.kind, start: s.start, end: s.end + 1, buf: b, hash: hash, pw: pw}
	return n
}

// popFront returns the window without its first element. It slides the start
// bound (always shared) unless the dead prefix has grown past compactAt, in
// which case the live remainder moves to a fresh backing.
func (s *seqState) popFront(hash, pw uint64) *seqState {
	if s.start+1 >= compactAt && int(s.start+1) > 2*s.size() {
		nb := s.buf.arena.newBuf(s.buf.data[s.start+1 : s.end])
		n := s.buf.arena.alloc()
		*n = seqState{kind: s.kind, start: 0, end: int32(len(nb.data)), buf: nb, hash: hash, pw: pw}
		return n
	}
	n := s.buf.arena.alloc()
	*n = seqState{kind: s.kind, start: s.start + 1, end: s.end, buf: s.buf, hash: hash, pw: pw}
	return n
}

// insertAt returns the window with v inserted at position i (counted from
// start); the window is copied into a fresh backing — out-of-order inserts
// are the one transition with no structural sharing.
func (s *seqState) insertAt(i int, v int64, hash uint64) *seqState {
	w := s.window()
	nb := s.buf.arena.newBuf(w[:i], []int64{v}, w[i:])
	n := s.buf.arena.alloc()
	*n = seqState{kind: s.kind, start: 0, end: int32(len(nb.data)), buf: nb, hash: hash}
	return n
}

// removeAt returns the window without the element at position i (counted
// from start), copying unless i is the first position.
func (s *seqState) removeAt(i int, hash uint64) *seqState {
	if i == 0 {
		return s.popFront(hash, 0)
	}
	w := s.window()
	nb := s.buf.arena.newBuf(w[:i], w[i+1:])
	n := s.buf.arena.alloc()
	*n = seqState{kind: s.kind, start: 0, end: int32(len(nb.data)), buf: nb, hash: hash}
	return n
}

// cachedVal consults the value-transition cache; δ is deterministic and does
// not read Uniq, so (method, argument) fully determines the successor.
func (s *seqState) cachedVal(mc methCode, arg int64) *seqState {
	if s.valMeth == mc && s.valArg == arg {
		return s.valNext
	}
	return nil
}

func (s *seqState) cacheVal(mc methCode, arg int64, n *seqState) {
	s.valNext, s.valMeth, s.valArg = n, mc, arg
}

// search returns the position of v in the sorted window (set, pqueue) as in
// sort.Search, plus whether v is present.
func (s *seqState) search(v int64) (int, bool) {
	w := s.window()
	i := sort.Search(len(w), func(i int) bool { return w[i] >= v })
	return i, i < len(w) && w[i] == v
}

// Apply runs δ. See the kind-specific helpers for the transition semantics,
// which are unchanged from the original copy-per-step models.
func (s *seqState) Apply(op Operation) (State, Response, bool) {
	switch s.kind {
	case seqQueue:
		return s.applyQueue(op)
	case seqStack:
		return s.applyStack(op)
	case seqSet:
		return s.applySet(op)
	default:
		return s.applyPQueue(op)
	}
}

func (s *seqState) applyQueue(op Operation) (State, Response, bool) {
	switch op.Method {
	case MethodEnq:
		if n := s.cachedVal(mcPush, op.Arg); n != nil {
			return n, OKResp(), true
		}
		var h, pw uint64
		if s.size() == 0 {
			h, pw = mixVal(op.Arg), 1
		} else {
			h, pw = s.hash*seqR+mixVal(op.Arg), s.pw*seqR
		}
		n := s.pushEnd(op.Arg, h, pw)
		s.cacheVal(mcPush, op.Arg, n)
		return n, OKResp(), true
	case MethodDeq:
		if s.size() == 0 {
			return s, EmptyResp(), true
		}
		front := s.buf.data[s.start]
		if s.popNext == nil {
			s.popNext = s.popFront(s.hash-mixVal(front)*s.pw, s.pw*seqRInv)
		}
		return s.popNext, ValueResp(front), true
	default:
		return nil, Response{}, false
	}
}

func (s *seqState) applyStack(op Operation) (State, Response, bool) {
	switch op.Method {
	case MethodPush:
		if n := s.cachedVal(mcPush, op.Arg); n != nil {
			return n, BoolResp(true), true
		}
		n := s.pushEnd(op.Arg, s.hash*seqR+mixVal(op.Arg), 0)
		s.cacheVal(mcPush, op.Arg, n)
		return n, BoolResp(true), true
	case MethodPop:
		if s.size() == 0 {
			return s, EmptyResp(), true
		}
		top := s.buf.data[s.end-1]
		if s.popNext == nil {
			// Popping the end never copies: the shorter window shares the
			// backing.
			n := s.buf.arena.alloc()
			*n = seqState{kind: seqStack, start: s.start, end: s.end - 1, buf: s.buf,
				hash: (s.hash - mixVal(top)) * seqRInv}
			s.popNext = n
		}
		return s.popNext, ValueResp(top), true
	default:
		return nil, Response{}, false
	}
}

func (s *seqState) applySet(op Operation) (State, Response, bool) {
	switch op.Method {
	case MethodAdd:
		if n := s.cachedVal(mcAdd, op.Arg); n != nil {
			return n, BoolResp(true), true
		}
		i, present := s.search(op.Arg)
		if present {
			return s, BoolResp(false), true
		}
		h := s.hash + mixVal(op.Arg)
		var n *seqState
		if i == s.size() {
			n = s.pushEnd(op.Arg, h, 0)
		} else {
			n = s.insertAt(i, op.Arg, h)
		}
		s.cacheVal(mcAdd, op.Arg, n)
		return n, BoolResp(true), true
	case MethodRemove:
		if n := s.cachedVal(mcRemove, op.Arg); n != nil {
			return n, BoolResp(true), true
		}
		i, present := s.search(op.Arg)
		if !present {
			return s, BoolResp(false), true
		}
		n := s.removeAt(i, s.hash-mixVal(op.Arg))
		s.cacheVal(mcRemove, op.Arg, n)
		return n, BoolResp(true), true
	case MethodContains:
		_, present := s.search(op.Arg)
		return s, BoolResp(present), true
	default:
		return nil, Response{}, false
	}
}

func (s *seqState) applyPQueue(op Operation) (State, Response, bool) {
	switch op.Method {
	case MethodInsert:
		if n := s.cachedVal(mcPush, op.Arg); n != nil {
			return n, OKResp(), true
		}
		i, _ := s.search(op.Arg)
		h := s.hash + mixVal(op.Arg)
		var n *seqState
		if i == s.size() {
			n = s.pushEnd(op.Arg, h, 0)
		} else {
			n = s.insertAt(i, op.Arg, h)
		}
		s.cacheVal(mcPush, op.Arg, n)
		return n, OKResp(), true
	case MethodMin:
		if s.size() == 0 {
			return s, EmptyResp(), true
		}
		min := s.buf.data[s.start]
		if s.popNext == nil {
			s.popNext = s.popFront(s.hash-mixVal(min), 0)
		}
		return s.popNext, ValueResp(min), true
	default:
		return nil, Response{}, false
	}
}

// Key preserves the canonical encodings of the original models ("q:1,2",
// "s:...", "e:...", "p:..."). Off the steady-state path: the checker's memo
// probes fingerprints and EqualState instead.
func (s *seqState) Key() string {
	return string(appendInts(append(make([]byte, 0, 2+8*s.size()), keyPrefix[s.kind], ':'), s.window()))
}

// Fingerprint returns the cached incremental fingerprint. Collisions are
// possible and harmless: the intern table (internal/stateset) always
// confirms with EqualState.
func (s *seqState) Fingerprint() uint64 { return s.hash }

// EqualState reports exact abstract-state equality, allocation-free.
func (s *seqState) EqualState(o State) bool {
	t, ok := o.(*seqState)
	if !ok || t.kind != s.kind || t.size() != s.size() {
		return false
	}
	a, b := s.window(), t.window()
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
