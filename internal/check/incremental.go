package check

import (
	"fmt"
	"slices"

	"repro/internal/check/loglin"
	"repro/internal/history"
	"repro/internal/spec"
)

// Incremental is a stateful linearizability monitor over a growing history.
// Where Monitor re-decides the whole history on every call, Incremental keeps
// the work done for the prefix and charges each Append only for the suffix
// since the last committed frontier, so steady-state monitoring cost tracks
// the delta instead of the whole published prefix (cf. the decrease-and-
// conquer monitors of arXiv:2410.04581 and arXiv:2509.17795).
//
// The pipeline behind Append is staged:
//
//  1. sticky No — linearizability is prefix-closed (Lemma 7.1), so once a
//     prefix is refuted every extension is refuted without further work;
//  2. delta gating — an empty delta returns the cached verdict;
//  3. segment check — a persistent Wing–Gong search (segSearch) runs only on
//     the events after the committed frontier, starting the sequential object
//     at the frontier state; the search state survives across appends, so a
//     burst whose suffix keeps linearizing costs O(delta) per append instead
//     of re-running from the frontier. A Yes here is sound because the
//     committed witness concatenated with the segment witness is a legal
//     sequential witness of the whole history that respects real time (every
//     committed operation returned before every event of the segment). A
//     resumed refutation is re-decided by a scratch search before it counts;
//  4. fallback — if the exact segment check fails, the complete checker
//     runs on the full retained history, so the final verdict is exactly
//     that of IsLinearizable on the whole history.
//
// The frontier advances at quiescent cuts: points where no operation is
// pending and the history so far is linearizable. Cutting at an arbitrary
// point would be unsound (a pending operation may have to linearize before
// already-seen operations); under retention (Config.Retain), strongly-ordered
// models can additionally opt in to commit-point-order cuts
// (RetentionPolicy.CommitCuts, commitcut.go), which commit through points
// straddled only by pending producers whose commit position provably lies
// behind the cut — bounding retention even on streams that never globally
// quiesce. In the default full-witness mode the frontier is the single state
// reached by the discovered witness — possibly the wrong choice, which the
// fallback repairs — and the whole history is retained forever.
//
// With Config.Retain the monitor instead keeps memory O(window): the frontier
// is the exact set of states reachable by any linearization of the committed
// prefix (FinalStates), which makes a failed segment check a sound refutation
// with no full-history fallback, and lets the committed prefix be discarded
// outright. See RetentionPolicy for what is given up in exchange.
//
// Incremental is not safe for concurrent use.
type Incremental struct {
	model  spec.Model
	cfg    Config // as given; the fields below are derived from it at construction
	retain bool
	policy RetentionPolicy

	fastTier bool         // log-linear decision tier (loglin) ahead of the exact search
	workers  int          // parallel fan-out width; <=1 is the sequential engine
	pool     *arenaPool   // recycled search arenas; a Shards replaces it with its shared one
	wstats   []WorkerStat // per-worker-slot diagnostics (scheduling-dependent)

	h     history.History
	hBase int          // events discarded by GC before h[0] (retention mode)
	base  []spec.State // exact state set at hBase; nil means {model.Init()}

	cutIdx   int          // events of h before cutIdx are committed
	cuts     []int        // indexes of h at which no operation was open, ascending, > cutIdx
	frontier []spec.State // states at the cut: len 1 (witness) unless retaining (exact set)
	searches []*segSearch // persistent segment search per frontier state
	dead     []bool       // retention: frontier states that exactly refuted the segment

	planner      *cutPlanner     // commit-point cuts; nil unless retaining a StronglyOrdered model with CommitCuts
	baseResident map[int64]int   // planner residency at the GC base, for window reloads
	piece        history.History // commit-cut scratch: the piece being committed (commitCutAt)

	respDropped int   // response events released by GC, cumulative
	invDropped  []int // invocation events released by GC, per process, cumulative

	pendingOp map[int]uint64 // proc -> id of its open invocation; nil while parked
	seenIDs   map[uint64]struct{}

	parked *parkedMonitor // non-nil while parked: h, frontier and base are packed here (park.go)

	verdict Verdict
	err     error // non-nil once a delta made the history ill-formed
	stats   IncStats
}

// RetentionPolicy bounds the monitor's memory. The collector discards the
// whole committed prefix — everything before the current cut — once it holds
// at least GCBatch events, and the exact frontier set at that cut becomes the
// new base. The trade-offs, all of which the default full-witness mode avoids
// by retaining everything:
//
//   - History() returns only the retained window, so a violation witness does
//     not reach back past the GC horizon (the discarded prefix was committed
//     linearizable, so the window plus the frontier set is still a proof);
//   - a duplicate of an operation id that was discarded is no longer
//     detected as a §2 violation;
//   - Append after a No stops retaining events (the window at the violation
//     is frozen as the witness) — memory stays bounded even on a refuted
//     stream.
//
// Verdicts are NOT weakened: the frontier is the exact state set of the
// discarded prefix, so retained verdicts equal IsLinearizable on the whole
// history at every append (equivalence-tested in retention_test.go). When the
// exact-set enumeration exceeds StateBudget or MaxFrontierStates the monitor
// skips the cut — never approximates — and retries at the next quiescent
// point, temporarily retaining more.
// The JSON tags are the wire form used by Config (monitorapi sessions and
// the interchange tooling); renaming one is a wire-format change and needs a
// protocol version bump. Dropping one is not: decoding ignores unknown
// fields, so a peer that still sends a dropped field is served as if it had
// not.
type RetentionPolicy struct {
	// GCBatch is the minimum number of committed events worth a GC pass;
	// smaller prefixes are kept until more commit. Default 64.
	GCBatch int `json:"gc_batch,omitempty"`
	// StateBudget caps the configurations explored beyond the linear minimum
	// when enumerating the exact frontier set at a cut. Default 1 << 17.
	StateBudget int `json:"state_budget,omitempty"`
	// MaxFrontierStates caps the size of the exact frontier set. Default 16.
	MaxFrontierStates int `json:"max_frontier_states,omitempty"`
	// CommitCuts opts strongly-ordered models (spec.StronglyOrdered: queue,
	// stack, priority queue) in to commit-point-order cuts: the monitor may
	// commit a prefix at a point straddled only by unpinned producer
	// operations, carrying their invocations into the segment, so retention
	// stays bounded on streams that never globally quiesce (see
	// commitcut.go for the cut rule and its exactness argument). Ignored —
	// today's quiescent-cut-only behaviour — for models without the
	// capability. Default false.
	CommitCuts bool `json:"commit_cuts,omitempty"`
}

func (p RetentionPolicy) withDefaults() RetentionPolicy {
	if p.GCBatch <= 0 {
		p.GCBatch = 64
	}
	if p.StateBudget <= 0 {
		p.StateBudget = 1 << 17
	}
	if p.MaxFrontierStates <= 0 {
		p.MaxFrontierStates = 16
	}
	return p
}

// IncOption configures an Incremental monitor.
type IncOption func(*Incremental)

// IncStats counts what the incremental pipeline actually did; EXPERIMENTS.md
// records them and cmd/stress prints them. Counters are cumulative over the
// monitor's lifetime — reloads do not zero them (see ReloadWindow).
type IncStats struct {
	Appends     int // Append calls
	Events      int // events ingested (reloaded events count again)
	CachedNoOps int // empty deltas answered from the cached verdict
	StickyNo    int // appends answered by prefix-closure alone
	SegChecks   int // segment checks run
	SegYes      int // segment checks that answered Yes
	MaxSegment  int // largest segment (in events) ever checked
	Fallbacks   int // full-history fallback checks
	Compactions int // quiescent cuts committed
	Resets      int // ReloadWindow calls

	SearchResumes  int // segment checks answered by resuming the persistent search
	SearchRebuilds int // scratch rebuilds of the persistent search
	SegExplored    int // configurations explored by committed segment-search runs
	ParallelRounds int // fan-out rounds (segment checks + frontier enumerations) run on the pool

	FastTierHits      int             // segment checks decided by the log-linear tier
	FastTierFallbacks int             // tier runs after which the exact search still ran
	TierAbstain       TierAbstentions // the tier's abstentions, by reason

	GCRuns            int   // garbage collections performed
	DiscardedEvents   int   // events released by GC, cumulative
	FrontierOverflows int   // cuts skipped: exact frontier set over budget
	CommitCuts        int   // commit-point-order cuts committed (strongly-ordered models)
	CarriedOps        int   // producer invocations restaged across commit cuts, cumulative
	RetainedEvents    int   // events currently held (gauge)
	RetainedBytes     int64 // approximate bytes of retained events (gauge)
	FrontierStates    int   // current size of the frontier state set (gauge)
}

// NewIncremental returns an incremental monitor for the model, positioned at
// the empty history (which is trivially a member). Options mutate one Config
// (the last write to a knob wins, WithConfig replaces all of them), which is
// then realised in a single place — so an option-built monitor and a
// Config-built monitor with the same final Config are the same monitor.
func NewIncremental(m spec.Model, opts ...IncOption) *Incremental {
	inc := &Incremental{
		model:     m,
		frontier:  []spec.State{m.Init()},
		searches:  make([]*segSearch, 1),
		pendingOp: make(map[int]uint64),
		seenIDs:   make(map[uint64]struct{}),
		verdict:   Yes,
	}
	for _, opt := range opts {
		opt(inc)
	}
	inc.retain = inc.cfg.Retain
	inc.policy = inc.cfg.Retention.withDefaults()
	inc.fastTier = !inc.cfg.NoFastTier && loglin.Supported(m)
	inc.workers = inc.cfg.Parallelism
	if inc.workers < 1 {
		inc.workers = 1
	}
	inc.pool = newArenaPool()
	if inc.workers > 1 {
		inc.wstats = make([]WorkerStat, inc.workers)
	}
	if inc.retain {
		inc.dead = make([]bool, 1)
		if inc.policy.CommitCuts {
			if so, ok := m.(spec.StronglyOrdered); ok {
				inc.planner = newCutPlanner(so, commitCutStride(inc.policy))
			}
		}
	}
	inc.stats.FrontierStates = 1
	return inc
}

// Config returns the configuration the monitor was built with (as given —
// retention defaults are applied internally, not reflected back); a restored
// monitor returns its image's.
func (inc *Incremental) Config() Config { return inc.cfg }

// Append extends the monitored history with delta and returns the verdict for
// the extended history. The result equals IsLinearizable on the whole history
// at every call. delta must extend the history seen so far to a well-formed
// history (§2); if it does not, the verdict is No — no GenLin object contains
// an ill-formed history — and Err explains why.
func (inc *Incremental) Append(delta history.History) Verdict {
	inc.stats.Appends++
	if inc.verdict == No {
		// Prefix-closure: skip all checking. The full-witness mode keeps the
		// events (History stays the whole witness); retention freezes the
		// window at the violation so memory stays bounded.
		if !inc.retain && len(delta) > 0 {
			inc.unpark()
			inc.h = append(inc.h, delta...)
			inc.gauges()
		}
		inc.stats.Events += len(delta)
		inc.stats.StickyNo++
		return No
	}
	if len(delta) == 0 {
		inc.stats.CachedNoOps++
		return inc.verdict
	}
	inc.unpark()
	inc.ensureOpenOps()
	for i, e := range delta {
		if err := inc.admit(e); err != nil {
			inc.h = append(inc.h, delta[i:]...)
			inc.stats.Events += len(delta) - i
			inc.gauges()
			inc.err = err
			inc.verdict = No
			return No
		}
		inc.h = append(inc.h, e)
		inc.stats.Events++
		if inc.planner != nil {
			inc.planner.track(e)
		}
		if len(inc.pendingOp) == 0 {
			inc.cuts = append(inc.cuts, len(inc.h))
		} else if inc.planner != nil {
			inc.planner.maybeCandidate(len(inc.h))
		}
	}
	if inc.checkSegment() {
		inc.verdict = Yes
		inc.advanceCuts()
		inc.gauges()
		return Yes
	}
	if inc.retain {
		// The frontier set is exact, so refuting the segment from every live
		// state refutes the whole history: no fallback needed (or possible —
		// the prefix is gone).
		inc.gauges()
		inc.verdict = No
		return No
	}
	return inc.fallback()
}

// checkSegment decides whether the events after the cut linearize from some
// frontier state: the fast tier first (fastTierSegment), then each remaining
// live state's search pipeline (runState) in frontier order up to the first
// witness. With Config.Parallelism and at least two live frontier states the
// pipelines fan out across the worker pool (checkSegmentParallel) and commit
// the same outcomes.
func (inc *Incremental) checkSegment() bool {
	seg := inc.h[inc.cutIdx:]
	inc.stats.SegChecks++
	if len(seg) > inc.stats.MaxSegment {
		inc.stats.MaxSegment = len(seg)
	}
	decided, ok, from := inc.fastTierSegment(seg)
	if decided {
		return ok
	}
	if inc.workers > 1 {
		live := make([]int, 0, len(inc.frontier)-from)
		for i := from; i < len(inc.frontier); i++ {
			if inc.dead == nil || !inc.dead[i] {
				live = append(live, i)
			}
		}
		if len(live) > 1 {
			return inc.checkSegmentParallel(seg, live)
		}
	}
	for i := from; i < len(inc.frontier); i++ {
		if inc.dead != nil && inc.dead[i] {
			continue
		}
		if inc.commit(i, inc.runState(i, seg, nil, 0)) {
			return true
		}
	}
	return false
}

// admit validates one event against the well-formedness conditions of §2,
// updating the pending/seen trackers.
func (inc *Incremental) admit(e history.Event) error {
	switch e.Kind {
	case history.Invoke:
		if open, busy := inc.pendingOp[e.Proc]; busy {
			return fmt.Errorf("process %d invokes op %d while op %d is pending", e.Proc, e.ID, open)
		}
		if _, dup := inc.seenIDs[e.ID]; dup {
			return fmt.Errorf("duplicate operation id %d", e.ID)
		}
		inc.seenIDs[e.ID] = struct{}{}
		inc.pendingOp[e.Proc] = e.ID
	case history.Return:
		open, busy := inc.pendingOp[e.Proc]
		if !busy || open != e.ID {
			return fmt.Errorf("process %d responds to op %d with no matching invocation", e.Proc, e.ID)
		}
		delete(inc.pendingOp, e.Proc)
	default:
		return fmt.Errorf("invalid event kind %d", e.Kind)
	}
	return nil
}

// fallback decides the full retained history with the complete checker. It
// restores completeness after a failed segment check (the frontier state may
// have been the wrong witness choice). Full-witness mode only; retention
// keeps the frontier exact instead.
func (inc *Incremental) fallback() Verdict {
	inc.stats.Fallbacks++
	r := Linearizable(inc.model, inc.h)
	if !r.Ok {
		inc.gauges()
		inc.verdict = No
		return No
	}
	// The committed decomposition was refutable but the history is a member:
	// discard the frontier and recommit at the next quiescent cut.
	inc.verdict = Yes
	inc.resetFrontier([]spec.State{inc.model.Init()})
	if inc.retain {
		inc.advanceCuts() // stepwise, keeping the frontier set exact
	} else if len(inc.pendingOp) == 0 {
		inc.compactWitness(r.Linearization, len(inc.h))
		inc.cuts = inc.cuts[:0]
	}
	inc.gauges()
	return Yes
}

// releaseSearches returns every persistent search's arena to the pool before
// the searches slice is dropped; without this, each compaction would orphan
// up to MaxFrontierStates grown interner/memo tables and the next round's
// rebuilds would find an empty free list — exactly the re-grow churn the
// pool exists to amortise.
func (inc *Incremental) releaseSearches() {
	for _, se := range inc.searches {
		if se != nil {
			se.release(inc.pool)
		}
	}
}

// resetFrontier moves the cut back to the start of the retained history with
// the given state set.
func (inc *Incremental) resetFrontier(states []spec.State) {
	inc.releaseSearches()
	inc.cutIdx = 0
	inc.frontier = states
	inc.searches = make([]*segSearch, len(states))
	if inc.retain {
		inc.dead = make([]bool, len(states))
	}
	inc.stats.FrontierStates = len(states)
}

// advanceCuts commits the frontier through the quiescent boundaries the
// admitted events passed. A boundary need not be the end of an append: under
// sustained concurrency batch boundaries are almost never quiescent
// themselves, but the stream keeps passing through quiescent moments, and
// every operation before such a moment returned before every event after it,
// so the decomposition argument is unchanged and the still-open suffix stays
// in the segment. Retention walks the boundaries one piece at a time so each
// exact-set enumeration covers only the gap between consecutive quiescent
// moments (a single enumeration over a burst-sized piece would blow its
// budget); the full-witness mode folds its witness once, straight to the
// last boundary.
func (inc *Incremental) advanceCuts() {
	n := len(inc.cuts)
	if n == 0 && inc.planner == nil {
		return
	}
	if !inc.retain {
		if q := inc.cuts[n-1]; q > inc.cutIdx {
			inc.compactTo(q)
		}
		inc.cuts = inc.cuts[:0]
		return
	}
	// Consume boundaries from the front, re-reading inc.cuts each step:
	// compactTo runs the collector, which filters the queue and shifts every
	// index (along with cutIdx) when it drops a prefix — iterating a stale
	// copy would commit garbage boundaries.
	for len(inc.cuts) > 0 {
		q := inc.cuts[0]
		if q <= inc.cutIdx {
			inc.cuts = inc.cuts[1:]
			continue
		}
		// Compare absolute stream positions: a successful compactTo may run
		// the collector, which shifts cutIdx (and the queue) down by the
		// dropped prefix — the relative index alone can look unchanged.
		prev := inc.hBase + inc.cutIdx
		inc.compactTo(q)
		if inc.hBase+inc.cutIdx == prev {
			// Enumeration over budget at this boundary. The piece and the
			// frontier are fixed, so retrying it would fail identically
			// forever and wedge the collector: drop it and stop for this
			// append. The next boundary — whose piece reaches past a point
			// where the state set may have converged again — is attempted on
			// the next append, bounding the retry work per append.
			inc.cuts = inc.cuts[1:]
			return
		}
	}
	// Quiescent boundaries exhausted. On a stream that never quiesces the
	// loop above was a no-op; strongly-ordered models then fall through to
	// commit-point cuts (commitcut.go), which can commit through positions
	// straddled by unpinned producers.
	if inc.planner != nil {
		inc.advanceCommitCuts()
	}
}

// compactTo advances the committed frontier to end, a quiescent cut of the
// history: no operation's interval straddles it. The piece up to end is
// linearizable (the segment check just accepted an extension of it), and
// every operation in it returned before every event after it, so it can be
// summarised by state alone. Full-witness mode folds the discovered witness
// into a single state; retention enumerates the exact state set and then
// garbage-collects.
func (inc *Incremental) compactTo(end int) {
	if !inc.retain {
		for i, se := range inc.searches {
			if se != nil && (inc.dead == nil || !inc.dead[i]) {
				inc.compactWitness(se.Witness(), end)
				return
			}
		}
		return
	}
	next, ok := inc.enumerateFrontier(inc.h[inc.cutIdx:end], end == len(inc.h))
	if !ok {
		return // keep the old cut; retry at the next quiescent point
	}
	inc.installFrontier(end, next)
	inc.gc()
}

// enumerateFrontier computes the exact state set a committed frontier
// reaches through piece, a quiescent slice of the retained history (every
// operation in it complete — commit-point cuts filter their carried
// invocations out first). ok is false when any state's enumeration exceeds
// StateBudget or the merged set exceeds MaxFrontierStates; the caller then
// keeps the old cut.
//
// A dead state exactly refuted the whole segment, so when the piece covers
// the segment (wholeSegment) its contribution is provably empty and the
// enumeration can be skipped. At an interior cut the piece is a proper
// prefix of the segment, which the dead state may still linearize — its
// reachable states belong in the exact set (the refutation only constrains
// what the suffix can extend).
//
// A drained piece (see drained) needs no enumeration at all: its exact set
// is the empty structure alone. The set cannot be empty instead, because a
// cut is committed only after the segment check accepted, so some state
// enumerated here linearizes the piece.
func (inc *Incremental) enumerateFrontier(piece history.History, wholeSegment bool) ([]spec.State, bool) {
	budget := inc.policy.StateBudget
	idxs := make([]int, 0, len(inc.frontier))
	for i := range inc.frontier {
		if wholeSegment && inc.dead[i] {
			continue
		}
		idxs = append(idxs, i)
	}
	if inc.drained(piece, idxs) {
		return []spec.State{inc.model.Init()}, true
	}
	// With several states to enumerate, fan the (independent) enumerations
	// out across the pool; each worker detaches its state so no chain is
	// shared (see parallel.go). The merge below stays sequential and in
	// frontier order, so the committed set — and the overflow accounting —
	// is identical to the sequential engine's: a detached copy walks the
	// same DFS and yields the same finals in the same order.
	var parFinals [][]spec.State
	var parOK []bool
	if inc.workers > 1 && len(idxs) > 1 {
		inc.stats.ParallelRounds++
		parFinals = make([][]spec.State, len(idxs))
		parOK = make([]bool, len(idxs))
		runParallel(len(idxs), inc.workers, func(slot, p int) {
			inc.wstats[slot].Tasks++
			ar := inc.pool.Get()
			parFinals[p], parOK[p] = ar.FinalStates(spec.Detach(inc.frontier[idxs[p]]),
				piece, budget, inc.policy.MaxFrontierStates)
			inc.pool.Put(ar)
		})
	}
	// merged's interner deduplicates the union; the sequential walks share
	// one further arena, which FinalStates leaves empty between calls.
	merged := inc.pool.Get()
	defer inc.pool.Put(merged)
	var walk *searchArena
	if parFinals == nil {
		walk = inc.pool.Get()
		defer inc.pool.Put(walk)
	}
	var next []spec.State
	for p, i := range idxs {
		var finals []spec.State
		var ok bool
		if parFinals != nil {
			finals, ok = parFinals[p], parOK[p]
		} else {
			finals, ok = walk.FinalStates(inc.frontier[i], piece, budget, inc.policy.MaxFrontierStates)
		}
		if !ok {
			inc.stats.FrontierOverflows++
			return nil, false
		}
		for _, f := range finals {
			if _, fresh := merged.in.Intern(f); !fresh {
				continue
			}
			next = append(next, f)
		}
		if len(next) > inc.policy.MaxFrontierStates {
			inc.stats.FrontierOverflows++
			return nil, false
		}
	}
	return next, true
}

// drained reports whether every linearization of piece from every frontier
// state in idxs ends with the structure empty. For a per-value model the
// size a linearization ends at is fixed by the events: the state's size,
// plus one per completed insert, minus one per completed value-returning
// removal. (A set Add answering false inserts nothing, so for the set the
// sum is an upper bound, and 0 still forces empty.) piece must be complete —
// a pending operation may or may not take effect — so one that is not never
// counts as drained.
func (inc *Incremental) drained(piece history.History, idxs []int) bool {
	pv, ok := inc.model.(spec.PerValueMatched)
	if !ok || len(idxs) == 0 {
		return false
	}
	size, open := 0, 0
	for _, e := range piece {
		if e.Kind == history.Invoke {
			open++
			continue
		}
		open--
		if _, ins := pv.InsertValue(e.Op); ins {
			size++
		} else if _, rem := pv.RemoveValue(e.Op, e.Res); rem {
			size--
		}
	}
	if open != 0 {
		return false
	}
	for _, i := range idxs {
		vals, ok := pv.Resident(inc.frontier[i])
		if !ok || len(vals)+size != 0 {
			return false
		}
	}
	return true
}

// installFrontier commits the frontier at cut with the given exact state
// set, dropping the per-state searches (the next segment check rebuilds them
// over the shrunk segment). Retention-mode cuts only.
//
// The enumeration's states are never kept themselves. Each one belongs to
// the walk's chain: its successor caches and the chain's arena chunks reach
// every state the walk visited, so keeping one would keep the whole walk
// until the next cut. The frontier gets spec.Detach copies instead.
func (inc *Incremental) installFrontier(cut int, states []spec.State) {
	inc.releaseSearches()
	inc.cutIdx = cut
	inc.frontier = detachStates(states)
	clear(inc.searches) // a released search past the new length would stay reachable
	inc.searches = append(inc.searches[:0], make([]*segSearch, len(states))...)
	inc.dead = append(inc.dead[:0], make([]bool, len(states))...)
	inc.stats.Compactions++
	inc.stats.FrontierStates = len(states)
}

// detachStates returns spec.Detach copies of states in a fresh slice.
func detachStates(states []spec.State) []spec.State {
	d := make([]spec.State, len(states))
	for i, st := range states {
		d[i] = spec.Detach(st)
	}
	return d
}

// compactWitness folds the witness of the piece up to end into a single
// frontier state (full-witness mode). The witness respects real time and
// every operation before the quiescent cut precedes every operation after
// it, so the piece's operations are exactly the witness's first
// (end-cutIdx)/2 entries.
func (inc *Incremental) compactWitness(lin []LinOp, end int) {
	k := (end - inc.cutIdx) / 2
	if k > len(lin) {
		return // impossible for a valid witness; refuse to compact
	}
	st := inc.frontier[0]
	for _, l := range lin[:k] {
		next, _, ok := st.Apply(l.Op)
		if !ok {
			return // impossible for a valid witness; refuse to compact
		}
		st = next
	}
	inc.releaseSearches()
	inc.cutIdx = end
	inc.frontier = []spec.State{st}
	inc.searches = make([]*segSearch, 1)
	inc.stats.Compactions++
	inc.stats.FrontierStates = 1
}

// gc discards the committed prefix — every event before the cut — once it
// holds at least GCBatch events. The frontier set at the cut becomes the new
// base: the monitor provably cannot need anything older (every discarded
// operation completed before the cut and the set covers every witness
// choice). It runs right after installFrontier, before any search has rooted
// at the new frontier, and the base gets detached copies of its own: the
// frontier states are about to grow search chains the base must not pin.
// The kept window moves to the front of its own backing, whose vacated tail
// is cleared, so a steady stream collects without allocating; a backing over
// four times the kept window and the GC batch is given up for a fitted copy.
func (inc *Incremental) gc() {
	cut := inc.cutIdx
	if cut < inc.policy.GCBatch {
		return
	}
	for _, e := range inc.h[:cut] {
		if inc.planner != nil && e.Kind == history.Return {
			inc.baseResident = inc.planner.collect(e, inc.baseResident)
		}
		if e.Kind == history.Invoke {
			// Carried producer invocations are never here: commit cuts splice
			// them past the cut before the collector can reach them, so a
			// pending operation's id (and duplicate detection for it) always
			// survives GC.
			delete(inc.seenIDs, e.ID)
			if e.Proc >= 0 {
				for e.Proc >= len(inc.invDropped) {
					inc.invDropped = append(inc.invDropped, 0)
				}
				inc.invDropped[e.Proc]++
			}
		} else {
			inc.respDropped++
		}
	}
	if kept := inc.h[cut:]; cap(inc.h) > 4*max(len(kept), inc.policy.GCBatch) {
		inc.h = slices.Clone(kept)
	} else {
		n := copy(inc.h, kept)
		clear(inc.h[n:])
		inc.h = inc.h[:n]
	}
	inc.hBase += cut
	inc.cutIdx = 0
	kept := inc.cuts[:0]
	for _, q := range inc.cuts {
		if q > cut {
			kept = append(kept, q-cut)
		}
	}
	inc.cuts = kept
	if inc.planner != nil {
		inc.planner.shift(cut)
	}
	inc.base = detachStates(inc.frontier)
	inc.stats.GCRuns++
	inc.stats.DiscardedEvents += cut
}

// gauges refreshes the point-in-time stats.
func (inc *Incremental) gauges() {
	inc.stats.RetainedEvents = len(inc.h)
	inc.stats.RetainedBytes = int64(len(inc.h)) * history.EventBytes
}

// reset discards all monitoring state and reloads the monitor with h,
// returning its verdict: ReloadWindow before any GC or without retention.
func (inc *Incremental) reset(h history.History) Verdict {
	inc.hBase = 0
	inc.base = nil
	inc.baseResident = nil
	// The per-kind discard counters rewind with the horizon: nothing of the
	// new history has been collected. Callers mirroring buffers off
	// DiscardedResponses/DiscardedInvocations must rewind their cursors
	// alongside a reset (ReloadWindow only resets pre-GC monitors, so their
	// cursors are already zero).
	inc.respDropped = 0
	inc.invDropped = nil
	if !inc.reload(h, []spec.State{inc.model.Init()}) {
		return No
	}
	if len(h) == 0 {
		return Yes
	}
	return inc.fallback()
}

// reload replaces the retained history with h against the given frontier,
// clearing all per-stream state and replaying h through the well-formedness
// admitter (recording quiescent cuts as it goes). It reports whether h is
// well-formed; if not, the verdict is already No with Err set. reset and
// ReloadWindow share it and differ only in which frontier anchors the replay.
func (inc *Incremental) reload(h history.History, frontier []spec.State) bool {
	inc.h = append(inc.h[:0:0], h...)
	inc.cuts = inc.cuts[:0]
	inc.resetFrontier(frontier)
	inc.pendingOp = make(map[int]uint64)
	inc.seenIDs = make(map[uint64]struct{})
	if inc.planner != nil {
		inc.planner.reset()
		inc.planner.seedResident(inc.baseResident)
	}
	inc.verdict = Yes
	inc.err = nil
	inc.stats.Resets++
	inc.stats.Appends++
	inc.stats.Events += len(h)
	defer inc.gauges()
	for i, e := range h {
		if err := inc.admit(e); err != nil {
			inc.err = err
			inc.verdict = No
			return false
		}
		if inc.planner != nil {
			inc.planner.track(e)
		}
		if len(inc.pendingOp) == 0 {
			inc.cuts = append(inc.cuts, i+1)
		} else if inc.planner != nil {
			inc.planner.maybeCandidate(i + 1)
		}
	}
	return true
}

// ReloadWindow replaces the retained window with h while keeping the GC base:
// the monitor re-decides h as the continuation of the discarded prefix and
// returns its verdict. The decoupled pipeline uses it when late-published
// tuples force a reconstruction of X(τ). Before any GC (or without
// retention) nothing is discarded, so h is the whole history and the monitor
// is reloaded from scratch. Stats are NOT zeroed: IncStats counters are
// cumulative over the monitor's lifetime, so pipeline totals survive reloads
// (Resets counts them; Events counts reloaded events again).
func (inc *Incremental) ReloadWindow(h history.History) Verdict {
	inc.unpark()
	if !inc.retain || inc.hBase == 0 {
		return inc.reset(h)
	}
	defer inc.gauges() // advanceCuts below can collect part of the window
	// The reloaded frontier roots new searches; detached copies keep their
	// chains off the base, which later reloads start from again.
	if !inc.reload(h, detachStates(inc.base)) {
		return No
	}
	if len(h) == 0 {
		return Yes
	}
	if !inc.checkSegment() {
		inc.verdict = No // exact: the base set covers the discarded prefix
		return No
	}
	inc.advanceCuts()
	return Yes
}

// Verdict returns the cached verdict for the history seen so far.
func (inc *Incremental) Verdict() Verdict { return inc.verdict }

// History returns the retained history. In the default full-witness mode that
// is the whole history — the violation witness once the verdict is No. Under
// retention it is only the window since the GC horizon (Discarded says
// how much is gone); on a violation the window is frozen as the witness.
// Callers must not modify it. The slice aliases the monitor's window, which
// commit cuts and the collector rewrite in place: the next Append,
// ReloadWindow or Park may overwrite or drop it, so a caller that keeps it
// past that must clone it. A parked monitor returns a fresh copy decoded
// from its parked window and stays parked.
func (inc *Incremental) History() history.History {
	if p := inc.parked; p != nil {
		return unpackEvents(p.window, p.events)
	}
	return inc.h
}

// Discarded returns the number of events garbage-collected so far; the
// retained window starts that many events into the monitored history. Under
// commit-point cuts the window is no longer a contiguous suffix of the
// stream — carried producer invocations are restaged at the window head out
// of original position — so callers that mirror the monitor's buffers should
// align on DiscardedResponses and DiscardedInvocations instead.
func (inc *Incremental) Discarded() int { return inc.hBase }

// DiscardedResponses returns how many response events have been garbage-
// collected so far. The incremental verification pipeline (internal/core)
// drops its oldest retained tuples in lockstep with this counter: response
// events are never restaged by commit-point cuts, so response order alone is
// a reliable alignment axis between the monitor's window and the pipeline's
// rebuild buffer.
func (inc *Incremental) DiscardedResponses() int { return inc.respDropped }

// DiscardedInvocations returns, per process index, how many invocation
// events have been garbage-collected so far — the announce floors the
// incremental verification pipeline rebuilds windows against. Carried
// producer invocations are not counted until the operation completes and its
// events are collected for good. The returned slice aliases internal state
// (and may be shorter than the process count); callers must treat it as
// read-only.
func (inc *Incremental) DiscardedInvocations() []int { return inc.invDropped }

// FrontierSize returns the current number of states summarising the
// committed prefix.
func (inc *Incremental) FrontierSize() int {
	if p := inc.parked; p != nil {
		return len(p.frontier)
	}
	return len(inc.frontier)
}

// Err reports why the history became ill-formed, if it did.
func (inc *Incremental) Err() error { return inc.err }

// Stats returns the pipeline counters so far.
func (inc *Incremental) Stats() IncStats { return inc.stats }

// Parallelism returns the configured worker count (1 for the sequential
// engine).
func (inc *Incremental) Parallelism() int { return inc.workers }

// WorkerStats returns a copy of the per-worker-slot diagnostics, or nil
// without Config.Parallelism. Unlike IncStats these are scheduling-dependent
// (see WorkerStat).
func (inc *Incremental) WorkerStats() []WorkerStat {
	if inc.wstats == nil {
		return nil
	}
	return append([]WorkerStat(nil), inc.wstats...)
}
