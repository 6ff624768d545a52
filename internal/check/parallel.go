package check

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/history"
	"repro/internal/spec"
)

// This file is the parallel wait-free segment engine: a bounded worker pool
// that fans one monitor's segment check out across the frontier's reachable
// states, and a shard driver (Shards) that fans independent monitors out
// across verification shards. The per-state subproblems are independent by
// construction — each frontier state's search already owns its candidate
// list, interner and memo (cf. the decrease-and-conquer decomposition of
// arXiv:2410.04581 and the reachability view of Bouajjani et al. 2015) — so
// the only shared mutable state during a round is the race control's single
// atomic word.
//
// Determinism. The join commits per-state outcomes in frontier order, and
// only up to the first accepting state — exactly the set of states the
// sequential loop would have processed (it stops at the first Yes). Workers
// past an accepting position are speculation the sequential engine never
// performed: their outcomes (searches, stats) are discarded, and the
// first-witness race control cancels them early. A worker at or before the
// first accepting position is never cancelled (beaten compares strictly), so
// every committed outcome ran to completion. Verdicts and merged IncStats are
// therefore identical to the sequential engine's under any scheduling —
// fuzz-proven in parallel_test.go.
//
// Chain ownership. Frontier states of one generation typically share one
// spec state chain (FinalStates derives them from a single walk), and chains
// are confined to one goroutine at a time. Each worker therefore roots its
// search at spec.Detach(frontier[i]) — a deep-copied window opening a fresh
// chain — rather than locking inside spec (see the State contract and
// ROADMAP). Detach only reads the source chain, and no goroutine Applies on
// the frontier chain during a round, so concurrent detaches are safe. A
// search committed by one round is resumed by a later round (possibly on a
// different worker): the join's WaitGroup edge orders the handoff.

// raceCtl is the first-witness race control of one parallel round: the
// lowest frontier position that has accepted so far. Workers poll it
// (beaten) every cancelStride search steps and abort once a position before
// theirs has a witness — their outcome could never be committed.
type raceCtl struct {
	minYes atomic.Int32
}

func newRaceCtl() *raceCtl {
	c := &raceCtl{}
	c.minYes.Store(math.MaxInt32)
	return c
}

// accept records a witness at pos (keeping the minimum).
func (c *raceCtl) accept(pos int32) {
	for {
		cur := c.minYes.Load()
		if pos >= cur {
			return
		}
		if c.minYes.CompareAndSwap(cur, pos) {
			return
		}
	}
}

// beaten reports whether a position strictly before pos has accepted.
func (c *raceCtl) beaten(pos int32) bool { return c.minYes.Load() < pos }

// runParallel executes task(slot, 0..n-1) on at most workers goroutines; the
// caller's goroutine is slot 0, so workers<=1 (or n<=1) degenerates to an
// inline loop with no goroutine, channel or atomic traffic — Parallelism 1 is
// the sequential engine, not a slower copy of it. Tasks are claimed off a
// shared counter in index order.
func runParallel(n, workers int, task func(slot, idx int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for g := 1; g < workers; g++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(slot, i)
			}
		}(g)
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		task(0, i)
	}
	wg.Wait()
}

// WorkerStat counts what one worker slot of the parallel engine actually did.
// Unlike IncStats these depend on scheduling (which slot claims which state,
// how far a cancelled speculation got), so they are diagnostics — cmd/stress
// prints them — and are deliberately kept out of the deterministic IncStats.
type WorkerStat struct {
	Tasks     int // per-state searches and enumerations claimed by this slot
	Explored  int // configurations explored, including discarded speculation
	Cancelled int // searches aborted by first-witness cancellation
}

// segOutcome is runState's result for one frontier state.
type segOutcome struct {
	se       *segSearch
	yes      bool
	aborted  bool
	resumes  int
	rebuilds int
	explored int // configurations explored by committed-eligible runs
}

// checkSegmentParallel decides the segment from every live frontier state at
// once. live is the ascending list of non-dead frontier indexes (len >= 2).
// See the file comment for the determinism and chain-ownership argument.
func (inc *Incremental) checkSegmentParallel(seg history.History, live []int) bool {
	inc.stats.ParallelRounds++
	outs := make([]segOutcome, len(live))
	ctl := newRaceCtl()
	runParallel(len(live), inc.workers, func(slot, p int) {
		o := inc.runState(live[p], seg, ctl, int32(p))
		if o.yes {
			ctl.accept(int32(p))
		}
		ws := &inc.wstats[slot]
		ws.Tasks++
		ws.Explored += o.explored
		if o.aborted {
			ws.Cancelled++
		}
		outs[p] = o
	})

	// Join: the first accepting position bounds what the sequential loop
	// would have processed; commit exactly that prefix, in order.
	winner := -1
	for p := range outs {
		if outs[p].yes {
			winner = p
			break
		}
	}
	limit := len(outs)
	if winner >= 0 {
		limit = winner + 1
	}
	for p := 0; p < limit; p++ {
		if outs[p].aborted {
			// beaten() compares strictly, so a worker at or before the first
			// accepting position can never have been cancelled.
			panic("check: cancelled search before the first witness")
		}
		inc.commit(live[p], outs[p])
	}
	// Speculation past the winner: the sequential engine never ran these
	// states (and provably had no persistent search for them — a state gets a
	// search only after every live state before it refuted, which would have
	// killed the winner), so the outcomes are dropped whole and the arenas
	// recycled.
	for p := limit; p < len(outs); p++ {
		if outs[p].se != nil {
			outs[p].se.release(inc.pool)
		}
	}
	return winner >= 0
}

// runState is the per-state pipeline of a segment check — optimistic resume,
// scratch rebuild on a resumed refutation — for frontier state i. The
// sequential loop calls it with ctl == nil; a worker of a parallel round
// passes the round's race control and its position, and roots any rebuilt
// search at a detached copy of the state (see the file comment). Only the
// first live position can hold a persistent search (see the join comment),
// and position 0 is never beaten, so the resume path cannot abort and a
// cancelled outcome is always a fresh speculative search.
func (inc *Incremental) runState(i int, seg history.History, ctl *raceCtl, pos int32) segOutcome {
	var o segOutcome
	se := inc.searches[i]
	if se == nil {
		se = inc.rebuild(i, seg, ctl)
		o.rebuilds++
	} else {
		se.Feed(seg[se.fed:])
		o.resumes++
	}
	before := se.explored
	ok := se.run(ctl, pos)
	o.explored += se.explored - before
	if !ok && !se.aborted && !se.Exhausted() {
		// Optimistic resume refuted; only a fresh search is complete.
		se.release(inc.pool)
		se = inc.rebuild(i, seg, ctl)
		o.rebuilds++
		before = se.explored
		ok = se.run(ctl, pos)
		o.explored += se.explored - before
	}
	o.se, o.yes, o.aborted = se, ok, se.aborted
	return o
}

// rebuild builds a fresh search over seg from frontier state i on an arena
// drawn from the pool, so that its first run is an exact decision. On a
// parallel round's worker (ctl != nil) it starts from a detached copy of the
// state.
func (inc *Incremental) rebuild(i int, seg history.History, ctl *raceCtl) *segSearch {
	root := inc.frontier[i]
	if ctl != nil {
		root = spec.Detach(root)
	}
	se := newSegSearch(root, inc.pool.Get())
	se.Feed(seg)
	return se
}

// commit folds frontier state i's outcome into the monitor — its search, its
// counters and, under retention, its refutation — and reports whether it
// accepted. Sequential and parallel segment checks commit through it alike,
// in frontier order up to the first witness.
func (inc *Incremental) commit(i int, o segOutcome) bool {
	inc.searches[i] = o.se
	inc.stats.SearchResumes += o.resumes
	inc.stats.SearchRebuilds += o.rebuilds
	inc.stats.SegExplored += o.explored
	if o.yes {
		inc.stats.SegYes++
		return true
	}
	if inc.dead != nil {
		// Exact refutation from this state; prefix-closure keeps it
		// refuted under every extension of the segment.
		inc.dead[i] = true
	}
	return false
}

// Shards drives a fixed set of independent Incremental monitors — one per
// verification shard (object or stream) — through one bounded worker pool.
// This is the second fan-out axis of the parallel engine: where
// Config.Parallelism splits one segment check across frontier states, Shards
// overlaps whole monitors, which is how a deployment watching many objects
// uses all cores without one slow shard serialising the rest. Shards are
// fully independent (own model Init, own history), so no detaching or race
// control is needed; the join's WaitGroup hands each monitor back before the
// next Append touches it.
//
// Shards is also a registry: a driver may instead take each monitor with
// Shard and run it itself, as the monitoring service does on its worker
// goroutines, with the monitors still sharing the set's arena pool. Either
// way each monitor is driven by one goroutine at a time, and the set's
// per-shard verdict cache covers only Append: a monitor driven outside it
// keeps its own verdict (Incremental.Verdict), which Shards.Verdict does not
// see.
//
// Shards itself is not safe for concurrent use: one goroutine calls Append,
// Add and AddMonitor.
type Shards struct {
	monitors []*Incremental
	workers  int
	verdicts []Verdict
	pool     *arenaPool // search arenas shared by every shard (see adopt)
	touched  []int      // Append's scratch: indexes of the shards given a delta
}

// NewShards builds one monitor per model, each configured with opts; workers
// bounds the cross-shard fan-out (<=1 runs shards inline, in order). models
// may be empty: a long-lived deployment (the monitoring service) starts with
// no shards and grows the set with Add as objects appear.
func NewShards(models []spec.Model, workers int, opts ...IncOption) *Shards {
	if workers < 1 {
		workers = 1
	}
	s := &Shards{
		monitors: make([]*Incremental, len(models)),
		workers:  workers,
		verdicts: make([]Verdict, len(models)),
		pool:     newArenaPool(),
	}
	for i, m := range models {
		s.monitors[i] = s.adopt(NewIncremental(m, opts...))
		s.verdicts[i] = Yes
	}
	return s
}

// adopt points inc at the shard set's arena pool. A deployment holds
// thousands of mostly idle monitors, and a free list per monitor would keep
// grown scratch alive for each of them; sharing bounds it per Shards. An
// arena inc already holds is simply released into the shared pool later.
func (s *Shards) adopt(inc *Incremental) *Incremental {
	inc.pool = s.pool
	return inc
}

// Add appends a fresh monitor for m, configured with opts, to the shard set
// and returns its index. The per-shard verdict starts at Yes (the empty
// history is a member). Like Append, Add must be called by the single
// driving goroutine — the monitoring service calls it on its dispatcher
// while its workers run other monitors, which Add does not touch.
func (s *Shards) Add(m spec.Model, opts ...IncOption) int {
	s.monitors = append(s.monitors, s.adopt(NewIncremental(m, opts...)))
	s.verdicts = append(s.verdicts, Yes)
	return len(s.monitors) - 1
}

// AddMonitor appends an existing monitor — typically one rebuilt by
// RestoreIncremental from a durable checkpoint — to the shard set and returns
// its index. The per-shard verdict starts at the monitor's cached verdict, so
// a shard restored mid-refutation stays refuted. Single-driver rule as Add.
func (s *Shards) AddMonitor(inc *Incremental) int {
	s.monitors = append(s.monitors, s.adopt(inc))
	s.verdicts = append(s.verdicts, inc.Verdict())
	return len(s.monitors) - 1
}

// Append extends shard i with deltas[i] for every shard and returns the
// per-shard verdicts (aliasing an internal slice valid until the next call).
// A nil delta skips its shard, and deltas may be shorter than the shard
// count: positions it does not reach keep their last verdict, as do those
// beyond the shard count. Only the shards with a delta go to the pool, so a
// round costs O(shards touched) — a round touching one shard runs inline —
// however many idle shards the set holds.
func (s *Shards) Append(deltas []history.History) []Verdict {
	touched := s.touched[:0]
	for i, d := range deltas[:min(len(deltas), len(s.monitors))] {
		if d != nil {
			touched = append(touched, i)
		}
	}
	s.touched = touched
	runParallel(len(touched), s.workers, func(_, k int) {
		i := touched[k]
		s.verdicts[i] = s.monitors[i].Append(deltas[i])
	})
	return s.verdicts
}

// Len returns the shard count.
func (s *Shards) Len() int { return len(s.monitors) }

// Shard returns shard i's monitor. Callers may inspect or drive it between
// Append calls, from one goroutine at a time; touching it concurrently with
// Append, or from two goroutines at once, is a race.
func (s *Shards) Shard(i int) *Incremental { return s.monitors[i] }

// Verdict folds the shards: No if any shard is No, else Yes.
func (s *Shards) Verdict() Verdict {
	for _, v := range s.verdicts {
		if v == No {
			return No
		}
	}
	return Yes
}

// Stats merges the shard monitors' counters in shard order: counters sum,
// gauges sum into fleet totals, and MaxSegment takes the maximum.
func (s *Shards) Stats() IncStats {
	var total IncStats
	for _, m := range s.monitors {
		total.add(m.Stats())
	}
	return total
}

// add folds b into a (sums, except MaxSegment which maximises).
func (a *IncStats) add(b IncStats) {
	a.Appends += b.Appends
	a.Events += b.Events
	a.CachedNoOps += b.CachedNoOps
	a.StickyNo += b.StickyNo
	a.SegChecks += b.SegChecks
	a.SegYes += b.SegYes
	if b.MaxSegment > a.MaxSegment {
		a.MaxSegment = b.MaxSegment
	}
	a.Fallbacks += b.Fallbacks
	a.Compactions += b.Compactions
	a.Resets += b.Resets
	a.SearchResumes += b.SearchResumes
	a.SearchRebuilds += b.SearchRebuilds
	a.SegExplored += b.SegExplored
	a.ParallelRounds += b.ParallelRounds
	a.FastTierHits += b.FastTierHits
	a.FastTierFallbacks += b.FastTierFallbacks
	a.GCRuns += b.GCRuns
	a.DiscardedEvents += b.DiscardedEvents
	a.FrontierOverflows += b.FrontierOverflows
	a.CommitCuts += b.CommitCuts
	a.CarriedOps += b.CarriedOps
	a.RetainedEvents += b.RetainedEvents
	a.RetainedBytes += b.RetainedBytes
	a.FrontierStates += b.FrontierStates
}
