package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/conslist"
	"repro/internal/genlin"
	"repro/internal/history"
)

// IncVerifier is the incremental verification pipeline behind the decoupled
// variant (Figure 12): instead of re-flattening every published result list,
// re-running BuildHistory and re-deciding membership of the whole prefix on
// every loop iteration, it keeps the X(τ) assembly and the monitor state
// across sketch snapshots and charges each pass only for the newly published
// tuples.
//
// The assembly exploits the structure of §7.3.3: distinct views are totally
// ordered by containment, so as long as new tuples carry views at least as
// large as the current last view group, X grows by appending — the new
// group's missing invocations, then the new responses. A tuple published
// late (a slow producer whose view predates groups already emitted) breaks
// the append order; the pipeline then falls back to a BuildHistory over
// every tuple emitted so far and reloads the monitor, preserving exact
// equivalence with the non-incremental path. The converse skew — a view
// arriving ahead of the response tuples it implies, which happens when
// scanner batches from different processes interleave — is tuple lag, not
// corruption, and is deferred until the missing tuples arrive (see blocked).
//
// Verdicts come from check.Incremental when the object is linearizability of
// a sequential model (the common case), and from the object's own membership
// test on the reassembled history otherwise (one-shot tasks). Violations are
// sticky: GenLin objects are prefix-closed, so once the published history
// falls outside the object every extension does too.
//
// With Config.Retain the pipeline bounds its own memory in lockstep
// with the monitor's garbage collector: tuples whose assembled events fell
// behind the GC horizon are dropped from the rebuild buffer, the announce
// cons-lists are truncated at the consumed floor, and a late publication is
// re-assembled from the retained window against the monitor's GC base
// instead of from the whole history.
//
// IncVerifier is not safe for concurrent use; the decoupled dispatcher owns
// one instance.
type IncVerifier struct {
	n   int
	obj genlin.Object

	inc   *check.Incremental // non-nil when obj is linearizability of a model
	hFull history.History    // assembled history for the generic-object path

	consumed   []int   // per-process count of tuples already ingested
	annPrev    []int   // announcements already emitted as invocations
	lastCounts []int   // view counts of the current last group; nil before the first tuple
	all        []Tuple // distinct tuples retained for rebuilds, in return-event order
	seen       map[uint64]struct{}
	pendingOp  map[int]uint64 // proc -> open invocation, for §2 well-formedness

	// deferred holds tuples whose view groups cannot be emitted yet: a group
	// announcing a process's next invocation while that process's previous
	// response tuple has not arrived is evidence of tuple lag (scanner
	// batches from different processes are not a consistent cut), not of a
	// violation. They are retried, ahead of new arrivals, on the next ingest.
	deferred []Tuple

	cfg      check.Config          // monitor configuration; Retain also gates the assembler's own GC sync
	retain   bool                  // cfg.Retain, cleared on the generic-object path
	respHead int                   // response events the monitor GC'd (tuples already released)
	baseAnn  []int                 // per-process announce floor: invocations behind the GC horizon
	annHeads []*conslist.Node[Ann] // heads of the largest view seen, for announce truncation

	verdict check.Verdict
	err     error
	stats   IncVerifyStats
}

// IncVerifyStats counts the pipeline's work; cmd/stress prints them and
// EXPERIMENTS.md records them.
type IncVerifyStats struct {
	Passes    int // ingest calls that saw at least one new tuple
	Tuples    int // distinct tuples ingested
	Groups    int // view groups appended incrementally
	Rebuilds  int // X(τ) reconstructions (out-of-order publications)
	Deferrals int // ingest passes paused on a not-yet-published response tuple

	DiscardedTuples  int   // tuples released behind the GC horizon
	RetainedTuples   int   // tuples currently held for rebuilds (gauge)
	AnnNodesReleased int64 // announce-list nodes unlinked by retention

	Check check.IncStats
}

// IncVerifierOption configures an IncVerifier.
type IncVerifierOption func(*IncVerifier)

// WithVerifierConfig configures the inner monitor with a check.Config — the
// one option surface shared with the monitoring service and anything else
// holding a serialised configuration. Retention additionally makes the
// assembler release tuples and announce-list prefixes behind the monitor's GC
// horizon; the caller must guarantee that nothing else traverses the announce
// cons-lists below the consumed floor (true for the decoupled pipeline, whose
// scanners read only view counts). Retention and parallelism require an
// object that is linearizability of a sequential model (the generic
// membership path needs the full history by definition) and are degraded to
// the unbounded sequential assembler otherwise.
func WithVerifierConfig(c check.Config) IncVerifierOption {
	return func(iv *IncVerifier) { iv.cfg = c }
}

// NewIncVerifier builds the pipeline for n processes monitoring obj.
func NewIncVerifier(n int, obj genlin.Object, opts ...IncVerifierOption) *IncVerifier {
	iv := &IncVerifier{
		n:         n,
		obj:       obj,
		consumed:  make([]int, n),
		annPrev:   make([]int, n),
		seen:      make(map[uint64]struct{}),
		pendingOp: make(map[int]uint64),
		verdict:   check.Yes,
	}
	for _, opt := range opts {
		opt(iv)
	}
	m := genlin.Model(obj)
	if m == nil {
		iv.cfg.Retain = false
		iv.cfg.Retention = check.RetentionPolicy{}
	}
	iv.retain = iv.cfg.Retain
	if m != nil {
		if iv.retain {
			iv.baseAnn = make([]int, n)
		}
		iv.inc = check.NewIncremental(m, check.WithConfig(iv.cfg))
	}
	return iv
}

// WorkerStats returns the inner monitor's per-worker diagnostics (nil without
// Config.Parallelism or on the generic-object path).
func (iv *IncVerifier) WorkerStats() []check.WorkerStat {
	if iv.inc == nil {
		return nil
	}
	return iv.inc.WorkerStats()
}

// IngestHeads consumes a fresh scan of the result snapshot, ingesting only
// tuples published since the previous call. Because the scan is a
// linearizable snapshot, the delta is a consistent cut: a view announcing an
// operation always travels with (or behind) the response tuples it implies.
// It reports whether anything new was processed.
func (iv *IncVerifier) IngestHeads(heads []*conslist.Node[Tuple]) bool {
	var delta []Tuple
	for p, h := range heads {
		if p >= iv.n {
			break
		}
		if h.Depth() > iv.consumed[p] {
			delta = append(delta, h.AscendingSince(iv.consumed[p])...)
			iv.consumed[p] = h.Depth()
		}
	}
	return iv.ingest(delta)
}

// IngestTuples ingests a batch of newly published tuples (from one or more
// processes). Batches must be disjoint and each process's tuples must arrive
// in publication order — every tuple is a new position of its process's
// result list, which is how the IngestHeads cursor stays aligned. (An op
// *republished* at a new position by a corrupted producer is deduplicated by
// identity below; that consumes the position without re-checking the op.)
// It reports whether anything new was processed.
func (iv *IncVerifier) IngestTuples(delta []Tuple) bool {
	for _, t := range delta {
		if t.Proc >= 0 && t.Proc < iv.n {
			iv.consumed[t.Proc]++
		}
	}
	return iv.ingest(delta)
}

// stageBatch aligns the cursor for a scanner batch covering positions
// [from, from+len) of proc's result list and returns the positions not yet
// consumed. The dispatcher needs this because its catch-up scans can ingest
// positions that a scanner had already extracted and queued: counting those
// batches again would push the cursor past reality and skip tuples forever.
func (iv *IncVerifier) stageBatch(proc, from int, tuples []Tuple) []Tuple {
	if proc < 0 || proc >= iv.n {
		return tuples // malformed; the view arity check reports it
	}
	if skip := iv.consumed[proc] - from; skip > 0 {
		if skip >= len(tuples) {
			return nil
		}
		tuples = tuples[skip:]
	}
	iv.consumed[proc] += len(tuples)
	return tuples
}

// blocked reports whether starting a group with the given view counts would
// invoke an operation whose process still has an unreturned predecessor.
// That response tuple provably exists (a DRV producer publishes its tuple
// before its next announce, so any view containing announce N+1 was
// snapshotted after tuple N was published) but has not reached this verifier
// yet — the batch must wait for it, not be reported.
func (iv *IncVerifier) blocked(counts []int) bool {
	for p := 0; p < iv.n; p++ {
		if counts[p] > iv.annPrev[p] {
			if _, busy := iv.pendingOp[p]; busy || counts[p]-iv.annPrev[p] > 1 {
				return true
			}
		}
	}
	return false
}

// Blocked reports whether ingestion is paused on a response tuple that has
// not been delivered yet; a snapshot-consistent IngestHeads resolves it.
func (iv *IncVerifier) Blocked() bool { return len(iv.deferred) > 0 }

// ingest runs the assembly pipeline over cursor-aligned tuples.
func (iv *IncVerifier) ingest(delta []Tuple) bool {
	if iv.violated() {
		return len(delta) > 0 // sticky: consume the positions, keep nothing
	}
	fresh := delta[:0:len(delta)]
	for _, t := range delta {
		if _, dup := iv.seen[t.Op.Uniq]; dup {
			continue
		}
		iv.seen[t.Op.Uniq] = struct{}{}
		fresh = append(fresh, t)
	}
	if len(fresh) == 0 {
		return false
	}
	iv.stats.Passes++
	iv.stats.Tuples += len(fresh)
	if len(iv.deferred) > 0 {
		fresh = append(iv.deferred, fresh...)
		iv.deferred = nil
	}

	// Views must be appended in containment order; within one batch, order by
	// view size (total order among comparable views). The rebuild buffer is
	// appended per emitted response, in the same order, so it stays aligned
	// with the response events of the assembled history — which is what lets
	// retention drop tuples in lockstep with the monitor's GC of the event
	// prefix.
	sortTuplesByViewSize(fresh)

	var events history.History
	for i, t := range fresh {
		counts := t.View.Counts()
		if len(counts) != iv.n {
			iv.fail(fmt.Errorf("view arity %d, want %d", len(counts), iv.n), events)
			return true
		}
		switch {
		case iv.lastCounts == nil || leqCounts(iv.lastCounts, counts):
			if iv.lastCounts == nil || !eqCounts(iv.lastCounts, counts) {
				if iv.blocked(counts) {
					// Tuple lag, not corruption: park the rest of the batch
					// (the missing response sorts before these views once it
					// arrives) and judge what was assembled so far.
					iv.deferred = append(iv.deferred, fresh[i:]...)
					iv.stats.Deferrals++
					iv.judge(events)
					return true
				}
				// A strictly larger view starts a new group: emit the
				// invocations of its new announcements first.
				for p := 0; p < iv.n; p++ {
					for _, ann := range t.View.annsSince(p, iv.annPrev[p]) {
						ev := history.Event{Kind: history.Invoke, Proc: ann.Proc, ID: ann.Op.Uniq, Op: ann.Op}
						if err := iv.admit(ev); err != nil {
							iv.fail(err, events)
							return true
						}
						events = append(events, ev)
					}
					iv.annPrev[p] = counts[p]
				}
				iv.lastCounts = append(iv.lastCounts[:0], counts...)
				iv.annHeads = t.View.heads
				iv.stats.Groups++
			}
			ev := history.Event{Kind: history.Return, Proc: t.Proc, ID: t.Op.Uniq, Op: t.Op, Res: t.Res}
			if err := iv.admit(ev); err != nil {
				iv.fail(err, events)
				return true
			}
			events = append(events, ev)
			iv.all = append(iv.all, t)
		default:
			// Late or incomparable view: the append order is broken, fall
			// back to a reconstruction over everything emitted plus this
			// tuple. Events assembled earlier in this batch are covered by
			// the reconstruction (their tuples are in iv.all), so they are
			// dropped rather than double-ingested; the rest of the batch
			// continues through the recomputed trackers.
			iv.all = append(iv.all, t)
			events = events[:0]
			iv.rebuild()
			if iv.violated() {
				return true
			}
		}
	}
	iv.judge(events)
	return true
}

// admit validates one event against §2 well-formedness. A violation means
// the published tuples cannot come from a DRV implementation over a
// linearizable snapshot (Remark 7.2); whatever produced them is certainly
// not correct with respect to the object.
func (iv *IncVerifier) admit(e history.Event) error {
	switch e.Kind {
	case history.Invoke:
		if open, busy := iv.pendingOp[e.Proc]; busy {
			return fmt.Errorf("process %d invokes op %d while op %d is pending", e.Proc, e.ID, open)
		}
		iv.pendingOp[e.Proc] = e.ID
	case history.Return:
		open, busy := iv.pendingOp[e.Proc]
		if !busy || open != e.ID {
			return fmt.Errorf("process %d responds to op %d with no matching invocation", e.Proc, e.ID)
		}
		delete(iv.pendingOp, e.Proc)
	}
	return nil
}

// judge hands the freshly assembled events to the monitor.
func (iv *IncVerifier) judge(events history.History) {
	if iv.inc != nil {
		iv.verdict = iv.inc.Append(events)
		iv.err = iv.inc.Err()
		iv.syncGC()
		iv.stats.Check = iv.inc.Stats()
		return
	}
	iv.hFull = append(iv.hFull, events...)
	if !iv.obj.Contains(iv.hFull) {
		iv.verdict = check.No
	}
}

// syncGC releases assembler state behind the monitor's GC horizon: tuples
// whose response events were collected leave the rebuild buffer (and the
// dedup set), per-process announce floors advance past collected
// invocations, and the announce cons-lists are truncated at the floor. Only
// meaningful under retention; a no-op otherwise.
//
// The alignment axes are the monitor's per-kind discard counters, not an
// event-prefix replica: under commit-point cuts the collected events are no
// longer a contiguous prefix of the assembled stream (carried producer
// invocations are restaged into the window), but response events are never
// restaged and the rebuild buffer is kept in response-event order — so the
// collected responses are exactly the oldest retained tuples, and the
// announce floors are exactly the monitor's per-process invocation counts.
func (iv *IncVerifier) syncGC() {
	if !iv.retain || iv.violated() {
		return
	}
	dropped := 0
	for d := iv.inc.DiscardedResponses(); iv.respHead < d; iv.respHead++ {
		t := iv.all[0]
		iv.all = iv.all[1:]
		delete(iv.seen, t.Op.Uniq)
		dropped++
	}
	advanced := false
	for p, d := range iv.inc.DiscardedInvocations() {
		if p < iv.n && d > iv.baseAnn[p] {
			iv.baseAnn[p] = d
			advanced = true
		}
	}
	if dropped > 0 {
		iv.stats.DiscardedTuples += dropped
	}
	if advanced && iv.annHeads != nil {
		for p := 0; p < iv.n && p < len(iv.annHeads); p++ {
			iv.stats.AnnNodesReleased += int64(iv.annHeads[p].TruncateBefore(iv.baseAnn[p]))
		}
	}
	iv.stats.RetainedTuples = len(iv.all)
}

// fail records a views/well-formedness corruption: sticky violation.
func (iv *IncVerifier) fail(err error, events history.History) {
	// Keep whatever was assembled so the witness shows the corrupted state.
	if iv.inc != nil {
		iv.inc.Append(events)
		iv.stats.Check = iv.inc.Stats()
	} else {
		iv.hFull = append(iv.hFull, events...)
	}
	iv.err = &ViewsError{Reason: err.Error()}
	iv.verdict = check.No
}

// rebuild reconstructs X(τ) from the retained tuples — the slow path taken
// when a late publication breaks the incremental append order — and reloads
// the monitor, restoring exact equivalence with the non-incremental verifier.
// Under retention the reconstruction covers only the window since the GC
// horizon, re-anchored at the monitor's GC base via ReloadWindow: a correct
// DRV producer cannot publish a tuple whose events precede the horizon (its
// invocation would have been pending, blocking a quiescent cut, or carried
// across a commit-point cut, which keeps its announce above the floor), so
// the windowed rebuild is exact for comparable-view streams; a corrupted
// stream whose evidence predates the horizon surfaces as a ViewsError
// instead.
func (iv *IncVerifier) rebuild() {
	iv.stats.Rebuilds++
	var h history.History
	var err error
	if iv.retain {
		h, err = buildHistorySince(iv.all, iv.n, iv.baseAnn)
	} else {
		h, err = BuildHistory(iv.all, iv.n)
	}
	if err != nil {
		iv.err = err
		iv.verdict = check.No
		if iv.inc == nil {
			iv.hFull = h
		}
		return
	}
	// Recompute the assembly trackers from the rebuilt history.
	iv.lastCounts = nil
	for _, t := range iv.all {
		c := t.View.Counts()
		if iv.lastCounts == nil || leqCounts(iv.lastCounts, c) {
			iv.lastCounts = append(iv.lastCounts[:0], c...)
			iv.annHeads = t.View.heads
		}
	}
	copy(iv.annPrev, iv.lastCounts)
	iv.pendingOp = make(map[int]uint64)
	for _, o := range h.Ops() {
		if !o.Complete {
			iv.pendingOp[o.Proc] = o.ID
		}
	}
	if iv.inc != nil {
		if iv.retain {
			// Realign the retained buffer with the canonical response order
			// of the reconstruction, which is the order the monitor's
			// collector will discard in.
			sortTuplesCanonical(iv.all)
		}
		iv.verdict = iv.inc.ReloadWindow(h)
		iv.err = iv.inc.Err()
		iv.syncGC()
		iv.stats.Check = iv.inc.Stats()
		return
	}
	iv.hFull = h
	if iv.obj.Contains(h) {
		iv.verdict = check.Yes
	} else {
		iv.verdict = check.No
	}
}

// MarkCorrupt records a violation detected upstream (a scanner's cheap
// necessary-condition check), with the same sticky semantics as a views
// error found during assembly.
func (iv *IncVerifier) MarkCorrupt(reason string) {
	if iv.violated() {
		return
	}
	iv.err = &ViewsError{Reason: reason}
	iv.verdict = check.No
}

// violated reports whether the pipeline has a sticky violation.
func (iv *IncVerifier) violated() bool { return iv.verdict == check.No || iv.err != nil }

// ConsumedOf returns how many of process p's published tuples have been
// ingested: the result-list depth below which this verifier never reads
// again. The decoupled dispatcher publishes it as its epoch cursor so
// scanners can release consumed cons-list prefixes.
func (iv *IncVerifier) ConsumedOf(p int) int { return iv.consumed[p] }

// Verdict returns the verdict for everything ingested so far.
func (iv *IncVerifier) Verdict() check.Verdict { return iv.verdict }

// Err returns the views/well-formedness corruption, if one was found.
func (iv *IncVerifier) Err() error { return iv.err }

// Witness returns the assembled history — the violation witness when the
// verdict is No. Callers must not modify it. Under retention it is the
// monitor's window (check.Incremental.History), which the next ingest may
// rewrite in place while the verdict is Yes; a caller that keeps it past
// that must clone it. A refuted monitor's window is never rewritten.
func (iv *IncVerifier) Witness() history.History {
	if iv.inc != nil {
		return iv.inc.History()
	}
	return iv.hFull
}

// Stats returns the pipeline counters so far.
func (iv *IncVerifier) Stats() IncVerifyStats { return iv.stats }

// sortTuplesByViewSize orders tuples by |λ| ascending (stable): comparable
// views are ordered by size, so this is containment order within a batch.
func sortTuplesByViewSize(ts []Tuple) {
	// Insertion sort: batches are small and usually already ordered.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].View.Size() < ts[j-1].View.Size(); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func leqCounts(a, b []int) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

func eqCounts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
