package check

import (
	"sync"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/stateset"
)

// searchArena is the working memory of one exact search: the intern table and
// configuration set every walker memoises in, plus the per-walk buffers of
// FinalStates. The tables are what a backtracking search grows through the
// resize ladder, so a monitor draws arenas from an arenaPool and hands them
// back instead of leaving one behind per search for the collector.
//
// Ownership: whoever took the arena from the pool owns it until Put — a
// segSearch for its whole life (across Feeds and Runs), FinalStates' caller
// for one enumeration. It is never shared: concurrent searches each hold
// their own. Nothing that outlives the search may point into it; the states a
// search hands out (frontier sets, witnesses) are spec values the arena only
// referenced, and reset drops those references so a pooled arena pins no
// chain.
type searchArena struct {
	in   *stateset.Interner
	memo *stateset.MemoSet

	ops       []history.Op
	cand      []node // candidate-list backing, head sentinel included
	bs        bitset
	stack     []finalFrame
	seenFinal []bool // indexed by intern id
}

// finalFrame is one linearized operation on FinalStates' stack.
type finalFrame struct {
	n    *node
	prev spec.State
}

func newSearchArena() *searchArena {
	return &searchArena{in: stateset.NewInterner(), memo: stateset.NewMemoSet(0)}
}

// reset empties the arena, keeping capacity and dropping every state
// reference.
func (a *searchArena) reset() {
	a.in.Reset()
	a.memo.Reset(0)
	clear(a.stack[:cap(a.stack)])
	a.stack = a.stack[:0]
}

// maxPooledArenas bounds a pool's free list. A segSearch holds its arena for
// as long as its monitor keeps the frontier state, so without a bound a Shards
// serving thousands of objects would end up holding the high-water mark of
// all of them: retained scratch must be per pool, not per monitored object.
// 32 is twice the default MaxFrontierStates, the most arenas one monitor
// holds at once. (How large a kept arena can be is already bounded: tables
// grow with the states a search explores, and StateBudget caps those.)
const maxPooledArenas = 32

// arenaPool recycles searchArenas across searches. One pool serves one
// driver: a standalone Incremental has its own, the monitors of a Shards
// share theirs. Get and Put are safe for concurrent use (the parallel
// engine's workers call them).
type arenaPool struct {
	mu   sync.Mutex
	free []*searchArena // never grows past the capacity newArenaPool gave it
}

func newArenaPool() *arenaPool {
	return &arenaPool{free: make([]*searchArena, 0, maxPooledArenas)}
}

// Get returns an empty arena, reusing a released one when available.
func (p *arenaPool) Get() *searchArena {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		return newSearchArena()
	}
	a := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.mu.Unlock()
	return a
}

// Put resets a and makes it available for reuse; a must not be used after.
// An arena that finds the free list full is left to the collector.
func (p *arenaPool) Put(a *searchArena) {
	a.reset()
	p.mu.Lock()
	if len(p.free) < cap(p.free) {
		p.free = append(p.free, a)
	}
	p.mu.Unlock()
}
