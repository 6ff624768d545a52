// Package stateset is the zero-allocation core of the linearizability
// search's memoisation: a state intern table (canonical spec.State → dense
// uint32 id) and an open-addressed set of (linearized-set bitset, state id)
// configurations.
//
// The original memo keyed a Go map by a string concatenating the serialised
// bitset with State.Key(), which materialised O(ops) bytes of key per probe —
// the dominant constant factor of the Wing–Gong search (cf. the
// state-representation findings of arXiv:2410.04581 and arXiv:2509.17795).
// Here a probe hashes the bitset words and the state's 64-bit fingerprint and
// compares words in an arena: no strings, no per-probe allocation.
//
// Exactness comes from interning, not from trusting hashes: Intern confirms
// every fingerprint hit with an exact equality check (allocation-free
// spec.Fingerprinted.EqualState when available, one-time canonical-key
// comparison otherwise), so two distinct abstract states never share an id,
// and the memo compares full bitset words, so two distinct configurations
// never alias. A fingerprint collision costs a failed compare — never a
// wrong verdict.
package stateset

import "repro/internal/spec"

// Interner assigns dense uint32 ids to distinct abstract states. It is
// append-only: ids stay valid for the interner's lifetime, and At(id) returns
// the canonical representative (the first state interned with that abstract
// value).
type Interner struct {
	table  []uint32 // open-addressed: slot -> id+1, 0 = empty
	mask   uint32
	states []spec.State
	fps    []uint64
	keys   []string // canonical keys, only for states without Fingerprinted
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner { return NewInternerHint(0) }

// NewInternerHint presizes for about hint distinct states, so a search that
// knows its scale up front (one shot over a fixed history) skips the
// grow-and-rehash ladder.
func NewInternerHint(hint int) *Interner {
	size := 64
	for size*3 < hint*4 {
		size *= 2
	}
	return &Interner{
		table:  make([]uint32, size),
		mask:   uint32(size - 1),
		states: make([]spec.State, 0, hint),
		fps:    make([]uint64, 0, hint),
	}
}

// Len returns the number of distinct states interned.
func (t *Interner) Len() int { return len(t.states) }

// At returns the canonical state with the given id.
func (t *Interner) At(id uint32) spec.State { return t.states[id] }

// Reset empties the intern table for reuse while keeping its capacity: the
// slot array is zeroed and the per-id columns are truncated with their
// references cleared (interned states must not be pinned by a pooled table).
// Ids handed out before the call are invalid afterwards.
func (t *Interner) Reset() {
	if len(t.states) == 0 {
		return // nothing interned since the last Reset: the table is all zero
	}
	clear(t.table)
	clear(t.states)
	t.states = t.states[:0]
	t.fps = t.fps[:0]
	clear(t.keys)
	t.keys = t.keys[:0]
}

// Intern returns the dense id of st's abstract state, interning it if it is
// new; fresh reports whether this call created the id. On the steady-state
// path (a Fingerprinted state already interned) it performs no allocation.
func (t *Interner) Intern(st spec.State) (id uint32, fresh bool) {
	var fp uint64
	var key string
	f, hasFP := st.(spec.Fingerprinted)
	if hasFP {
		fp = f.Fingerprint()
	} else {
		key = st.Key()
		fp = hashString(key)
	}
	slot := uint32(fp) & t.mask
	for {
		e := t.table[slot]
		if e == 0 {
			break
		}
		cand := e - 1
		if t.fps[cand] == fp {
			if hasFP {
				if f.EqualState(t.states[cand]) {
					return cand, false
				}
			} else if int(cand) < len(t.keys) && t.keys[cand] == key {
				// The bounds check matters in mixed-type tables: a keyed probe
				// can fingerprint-collide with a Fingerprinted candidate
				// interned before the keys column existed — that candidate has
				// no stored key, is necessarily unequal, and probing continues.
				return cand, false
			}
		}
		slot = (slot + 1) & t.mask
	}
	id = uint32(len(t.states))
	t.states = append(t.states, st)
	t.fps = append(t.fps, fp)
	if !hasFP {
		// The canonical-key column exists only once a keyed state shows up;
		// fingerprinted-only workloads never allocate it.
		for len(t.keys) < len(t.states)-1 {
			t.keys = append(t.keys, "")
		}
		t.keys = append(t.keys, key)
	} else if t.keys != nil {
		t.keys = append(t.keys, "")
	}
	t.table[slot] = id + 1
	if 4*len(t.states) >= 3*len(t.table) {
		t.grow()
	}
	return id, true
}

func (t *Interner) grow() {
	nt := make([]uint32, 2*len(t.table))
	mask := uint32(len(nt) - 1)
	for id, fp := range t.fps {
		slot := uint32(fp) & mask
		for nt[slot] != 0 {
			slot = (slot + 1) & mask
		}
		nt[slot] = uint32(id) + 1
	}
	t.table, t.mask = nt, mask
}

// hashString is FNV-1a, the fallback fingerprint for states without
// spec.Fingerprinted.
func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// MemoSet is an open-addressed set of (bitset, state id) configurations. The
// bitset words of inserted entries live in one shared arena, so inserting
// amortises to one append and probing allocates nothing.
//
// Reset is O(1): it bumps a generation counter, turning every live slot into
// a tombstone that later inserts reclaim in place. The persistent segment
// search (check.segSearch) resets the memo on every Feed, so cheap epoch
// invalidation — rather than clearing or reallocating the table — is what
// keeps the steady-state append path allocation-free.
type MemoSet struct {
	slots []memoSlot
	mask  uint32
	arena []uint64
	n     int
	words int
	epoch uint32
}

// memoSlot is one table slot: valid iff epoch matches the set's current
// generation; stale slots are tombstones reused by Insert. top keeps extra
// hash bits to short-circuit most mismatching compares.
type memoSlot struct {
	epoch uint32
	top   uint32
	id    uint32
	off   uint32
}

// NewMemoSet returns an empty set over bitsets of the given word length.
func NewMemoSet(words int) *MemoSet { return NewMemoSetHint(words, 0) }

// NewMemoSetHint presizes for about hint configurations.
func NewMemoSetHint(words, hint int) *MemoSet {
	size := 64
	for size*3 < hint*4 {
		size *= 2
	}
	return &MemoSet{
		slots: make([]memoSlot, size),
		mask:  uint32(size - 1),
		arena: make([]uint64, 0, hint*words),
		words: words,
		epoch: 1,
	}
}

// Len returns the number of configurations in the current generation.
func (m *MemoSet) Len() int { return m.n }

// Reset discards all entries (O(1)) and fixes the bitset word length for the
// next generation. Slots from earlier generations are reclaimed lazily.
func (m *MemoSet) Reset(words int) {
	m.words = words
	m.arena = m.arena[:0]
	m.n = 0
	m.epoch++
	if m.epoch == 0 {
		// Generation counter wrapped: 2^32-generation-old slots would look
		// current. One eager clear every 2^32 resets keeps validity exact.
		for i := range m.slots {
			m.slots[i] = memoSlot{}
		}
		m.epoch = 1
	}
}

// Insert adds the configuration (bs, id) and reports whether it was absent:
// true means the caller is first to reach it (explore), false means the
// subtree was already explored (prune). bs must have the word length fixed
// by the constructor or the last Reset; only words many are read.
func (m *MemoSet) Insert(bs []uint64, id uint32) bool {
	h := m.hash(bs, id)
	top := uint32(h >> 32)
	slot := uint32(h) & m.mask
	for {
		s := &m.slots[slot]
		if s.epoch != m.epoch { // empty or tombstone: claim
			off := uint32(len(m.arena))
			m.arena = append(m.arena, bs[:m.words]...)
			*s = memoSlot{epoch: m.epoch, top: top, id: id, off: off}
			m.n++
			if 4*m.n >= 3*len(m.slots) {
				m.grow()
			}
			return true
		}
		if s.id == id && s.top == top && m.equalAt(s.off, bs) {
			return false
		}
		slot = (slot + 1) & m.mask
	}
}

func (m *MemoSet) equalAt(off uint32, bs []uint64) bool {
	stored := m.arena[off : int(off)+m.words]
	for i := range stored {
		if stored[i] != bs[i] {
			return false
		}
	}
	return true
}

func (m *MemoSet) hash(bs []uint64, id uint32) uint64 {
	h := uint64(id)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	for i := 0; i < m.words; i++ {
		h ^= bs[i]
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}

func (m *MemoSet) grow() {
	old := m.slots
	m.slots = make([]memoSlot, 2*len(old))
	m.mask = uint32(len(m.slots) - 1)
	for _, s := range old {
		if s.epoch != m.epoch {
			continue
		}
		h := m.hash(m.arena[s.off:int(s.off)+m.words], s.id)
		slot := uint32(h) & m.mask
		for m.slots[slot].epoch == m.epoch {
			slot = (slot + 1) & m.mask
		}
		s.top = uint32(h >> 32)
		m.slots[slot] = s
	}
}
