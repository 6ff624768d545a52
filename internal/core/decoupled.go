package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/conslist"
	"repro/internal/genlin"
	"repro/internal/snapshot"
	"repro/internal/spec"
)

// Decoupled is the decoupled self-enforced implementation D_{O,A} of
// Figure 12 (§9.2): producers obtain responses through A* and publish the
// sketch; dedicated verifier goroutines monitor it. Producers never wait for
// verification, so responses may be returned before an error is detected —
// the trade-off §9.2 describes — but every violation is eventually reported
// as long as one verifier survives.
//
// The verifiers form an incremental sharded pipeline rather than the paper's
// literal re-check-everything loop:
//
//   - scanner goroutines each own a partition of the producer processes;
//     they watch the result snapshot and extract each owned process's newly
//     published tuples (a delta read off the persistent cons-lists, not a
//     re-flatten of the whole sketch), run a cheap per-tuple necessary
//     condition (Remark 7.2 self-inclusion), and forward batches;
//   - one dispatcher goroutine merges the batches into the incremental
//     X(τ) assembly (IncVerifier), drives the staged monitor pipeline
//     (check.Incremental), merges scanner verdicts with the monitor verdict,
//     and deduplicates reports: one report per violation, not one per loop
//     iteration.
//
// With a single verifier goroutine the dispatcher scans and checks by
// itself. The paper-literal loop body survives only as the B8 benchmark
// baseline (internal/soak FullRecheck).
type Decoupled struct {
	n   int
	drv *DRV
	obj genlin.Object
	m   snapshot.Snapshot[*conslist.Node[Tuple]]
	res []*conslist.Node[Tuple]

	onReport func(Report)
	stop     chan struct{}
	wg       sync.WaitGroup
	scanWg   sync.WaitGroup
	batches  chan tupleBatch

	monitor check.Config // dispatcher monitor configuration
	retain  bool         // monitor.Retain — the assembler/scanner release machinery is on
	// epochs[p] tracks, for process p's result cons-list, how deep each
	// verifier shard (its owning scanner and the dispatcher) has consumed, so
	// the scanner can release the prefix every shard is past.
	epochs []*conslist.Epoch

	scans       atomic.Int64
	resReleased atomic.Int64
	statsMu     sync.Mutex
	stats       DecoupledStats
	verifier    *IncVerifier // dispatcher's pipeline, for CheckpointMonitor (guarded by statsMu)
}

// Shard indices of a result list's epoch tracker.
const (
	scannerShard    = 0
	dispatcherShard = 1
	epochShards     = 2
)

// absorbChunk caps how many queued tupleBatches one absorb round merges, so
// the dispatcher decides and publishes gauges between chunks even when
// producers keep the batch channel saturated (ROADMAP: chunked absorb under
// overload).
const absorbChunk = 32

// DecoupledStats aggregates the verification pipeline's counters.
type DecoupledStats struct {
	Scans               int64 // snapshot scans across all verifier goroutines
	Reports             int   // deduplicated reports issued
	ResultNodesReleased int64 // result cons-list nodes released by retention
	Verify              IncVerifyStats
	// Workers holds the monitor's per-worker-slot diagnostics under
	// Config.Parallelism (nil otherwise); see check.WorkerStat.
	Workers []check.WorkerStat
}

// tupleBatch is one process's newly published tuples, forwarded by a scanner
// to the dispatcher: positions [from, from+len(tuples)) of proc's result
// list. corrupt carries a scanner-side necessary-condition verdict (empty =
// passed).
type tupleBatch struct {
	proc    int
	from    int
	tuples  []Tuple
	corrupt string
}

// DecoupledOption configures the decoupled implementation.
type DecoupledOption func(*decoupledCfg)

type decoupledCfg struct {
	drvOpts []Option
	monitor check.Config
}

// WithDecoupledDRV forwards options to the underlying A* construction.
func WithDecoupledDRV(opts ...Option) DecoupledOption {
	return func(c *decoupledCfg) { c.drvOpts = append(c.drvOpts, opts...) }
}

// WithDecoupledConfig configures the dispatcher's monitor with a
// check.Config (via WithVerifierConfig) — the one option surface a
// serialised configuration (a monitorapi session, a CLI profile) lands on.
// Retention additionally turns on the pipeline's own release machinery: the
// assembler drops tuples and truncates announce lists behind the GC horizon,
// and scanners release result cons-list prefixes once every verifier shard
// has consumed past them (conslist.Epoch). Parallelism overlaps the
// independent per-frontier-state segment searches of one ingest pass on a
// worker pool; it only fans out together with retention (the full-witness
// monitor keeps a single-state frontier). A later WithDecoupledConfig
// replaces an earlier one.
func WithDecoupledConfig(mc check.Config) DecoupledOption {
	return func(c *decoupledCfg) { c.monitor = mc }
}

// NewDecoupled builds D_{O,A} with the given number of verifier goroutines.
// onReport is called from the verification pipeline when a violation is
// found; reports are deduplicated (one per violation — violations are sticky
// by prefix-closure). Close must be called to stop the verifiers.
func NewDecoupled(inner Implementation, n, verifiers int, obj genlin.Object, onReport func(Report), opts ...DecoupledOption) *Decoupled {
	var cfg decoupledCfg
	for _, opt := range opts {
		opt(&cfg)
	}
	d := &Decoupled{
		n:        n,
		drv:      NewDRV(inner, n, cfg.drvOpts...),
		obj:      obj,
		m:        snapshot.NewAfek[*conslist.Node[Tuple]](n),
		res:      make([]*conslist.Node[Tuple], n),
		onReport: onReport,
		stop:     make(chan struct{}),
		monitor:  cfg.monitor,
		retain:   cfg.monitor.Retain,
	}
	if verifiers <= 0 {
		return d
	}
	if d.retain {
		d.epochs = make([]*conslist.Epoch, n)
		for p := 0; p < n; p++ {
			d.epochs[p] = conslist.NewEpoch(epochShards)
		}
	}
	scanners := verifiers - 1
	if scanners > n {
		scanners = n
	}
	d.batches = make(chan tupleBatch, 4*(scanners+1))
	for j := 0; j < scanners; j++ {
		var owned []int
		for p := j; p < n; p += scanners {
			owned = append(owned, p)
		}
		d.wg.Add(1)
		d.scanWg.Add(1)
		go d.scanLoop(owned)
	}
	d.wg.Add(1)
	go d.dispatch(scanners)
	return d
}

// N returns the number of producer processes.
func (d *Decoupled) N() int { return d.n }

// Name identifies the implementation.
func (d *Decoupled) Name() string { return d.drv.inner.Name() + "+decoupled" }

// Apply is the producer operation of Figure 12 (Lines 01–05): obtain the
// response through A*, publish the 4-tuple, and return immediately.
func (d *Decoupled) Apply(proc int, op spec.Operation) spec.Response {
	y, view := d.drv.Apply(proc, op)
	d.res[proc] = conslist.Push(d.res[proc], Tuple{Proc: proc, Op: op, Res: y, View: view})
	d.m.Update(proc, d.res[proc])
	return y
}

// scanLoop is a sharded scanner: it watches the owned processes' entries of
// the result snapshot, extracts newly published tuples, applies the cheap
// Remark 7.2 self-inclusion necessary condition, and forwards batches to the
// dispatcher. Under retention it publishes its consumption cursor on every
// scan round (not only when it forwarded something — an idle process's
// prefix must still become reclaimable); the dispatcher, as the single
// reclaimer, truncates at the epoch floor. A single reclaimer matters: two
// goroutines truncating one list would race on the next pointers the other
// walks.
func (d *Decoupled) scanLoop(owned []int) {
	defer d.wg.Done()
	defer d.scanWg.Done()
	sent := make([]int, d.n)
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		heads := d.m.Scan(0)
		d.scans.Add(1)
		idle := true
		for _, p := range owned {
			h := heads[p]
			if h.Depth() > sent[p] {
				tuples := h.AscendingSince(sent[p])
				corrupt := ""
				for k, t := range tuples {
					// The i-th tuple of process p stems from p's (i+1)-th
					// announcement, which its own view snapshot must contain.
					if c := t.View.Counts(); len(c) != d.n || c[p] < sent[p]+k+1 {
						corrupt = fmt.Sprintf("tuple %d of process %d lacks self-inclusion", sent[p]+k, p+1)
						break
					}
				}
				select {
				case d.batches <- tupleBatch{proc: p, from: sent[p], tuples: tuples, corrupt: corrupt}:
					sent[p] += len(tuples)
					idle = false
				case <-d.stop:
					return
				}
			}
			if d.epochs != nil {
				d.epochs[p].Advance(scannerShard, sent[p])
			}
		}
		if idle {
			runtime.Gosched()
		}
	}
}

// releaseBatch is the minimum number of consumed nodes worth a truncation
// walk.
func (d *Decoupled) releaseBatch() int {
	if d.monitor.Retention.GCBatch > 0 {
		return d.monitor.Retention.GCBatch
	}
	return 64
}

// dispatch merges scanner batches into the incremental pipeline, decides,
// and reports. With no scanners it polls the snapshot itself (and, under
// retention, reclaims the result lists itself — it is the only consumer).
func (d *Decoupled) dispatch(scanners int) {
	defer d.wg.Done()
	iv := NewIncVerifier(d.n, d.obj, WithVerifierConfig(d.monitor))
	d.statsMu.Lock()
	d.verifier = iv
	d.statsMu.Unlock()
	reported := false
	released := make([]int, d.n)

	publishCursors := func() {
		if d.epochs == nil {
			return
		}
		for p := 0; p < d.n; p++ {
			d.epochs[p].Advance(dispatcherShard, iv.ConsumedOf(p))
		}
	}

	// The dispatcher is the single reclaimer of the result cons-lists: it
	// truncates at the epoch floor — never past a scanner's published cursor
	// — once a releaseBatch worth of nodes is reclaimable. The floor check is
	// cheap (atomic loads); the snapshot scan happens only when a truncation
	// will actually run.
	maybeReclaim := func() {
		if d.epochs == nil {
			return
		}
		need := false
		for p := 0; p < d.n; p++ {
			if d.epochs[p].Floor()-released[p] >= d.releaseBatch() {
				need = true
				break
			}
		}
		if !need {
			return
		}
		heads := d.m.Scan(0)
		d.scans.Add(1)
		for p := 0; p < d.n; p++ {
			if floor := d.epochs[p].Floor(); floor-released[p] >= d.releaseBatch() {
				d.resReleased.Add(int64(heads[p].TruncateBefore(floor)))
				released[p] = floor
			}
		}
	}

	absorb := func(first tupleBatch, ok bool) {
		// Coalesce batches already queued into one ingest pass so the monitor
		// runs once per burst, not once per process — but cap the round at
		// absorbChunk batches. Without the cap, producers that outrun
		// verification keep the channel non-empty forever and one absorb
		// round swallows the whole backlog: verification never interleaves
		// with ingestion, and the retention gauges (cmd/stress -retain) show
		// one giant final drain instead of the steady state. Batches are
		// staged position-aware: a catch-up scan below may already have
		// consumed the positions a queued batch covers.
		var delta []Tuple
		for rounds := 0; ; {
			if ok {
				if first.corrupt != "" {
					iv.MarkCorrupt(first.corrupt)
				}
				delta = append(delta, iv.stageBatch(first.proc, first.from, first.tuples)...)
				rounds++
			}
			if rounds < absorbChunk {
				select {
				case first, ok = <-d.batches:
					continue
				default:
				}
			}
			break
		}
		iv.ingest(delta)
		if iv.Blocked() {
			// Scanner batches from different processes are not a consistent
			// cut: a view can announce an operation whose response tuple is
			// still in another scanner's queue. One linearizable snapshot
			// scan closes the gap (the tuple is provably published).
			iv.IngestHeads(d.m.Scan(0))
			d.scans.Add(1)
		}
		publishCursors()
		maybeReclaim()
	}

	settle := func() {
		if iv.violated() && !reported {
			reported = true
			d.statsMu.Lock()
			d.stats.Reports++
			d.statsMu.Unlock()
			if d.onReport != nil {
				d.onReport(Report{Proc: -1, Witness: iv.Witness()})
			}
		}
		d.statsMu.Lock()
		d.stats.Verify = iv.Stats()
		d.stats.Workers = iv.WorkerStats()
		d.statsMu.Unlock()
	}

	finish := func() {
		if scanners > 0 {
			d.scanWg.Wait()
			// Drain the whole backlog: absorb is chunked, so keep going until
			// the channel is empty (no scanner can refill it now).
			for drained := false; !drained; {
				select {
				case b := <-d.batches:
					absorb(b, true)
				default:
					absorb(tupleBatch{}, false)
					drained = true
				}
			}
		}
		// Final drain: everything published before Close gets verified.
		iv.IngestHeads(d.m.Scan(0))
		d.scans.Add(1)
		if iv.Blocked() {
			// Every published tuple has been drained, so a still-missing
			// response tuple provably does not exist: the announce was not
			// produced by a DRV producer (they publish before their next
			// announce). Report it instead of dropping the evidence.
			iv.MarkCorrupt("announced operation's response tuple was never published")
		}
		settle()
	}

	for {
		if scanners == 0 {
			select {
			case <-d.stop:
				finish()
				return
			default:
			}
			heads := d.m.Scan(0)
			changed := iv.IngestHeads(heads)
			d.scans.Add(1)
			if d.epochs != nil {
				for p := 0; p < d.n; p++ {
					c := iv.ConsumedOf(p)
					d.epochs[p].Advance(scannerShard, c)
					d.epochs[p].Advance(dispatcherShard, c)
					if c-released[p] >= d.releaseBatch() {
						d.resReleased.Add(int64(heads[p].TruncateBefore(c)))
						released[p] = c
					}
				}
			}
			settle()
			if !changed {
				runtime.Gosched()
			}
			continue
		}
		select {
		case <-d.stop:
			finish()
			return
		case b := <-d.batches:
			absorb(b, true)
			settle()
		}
	}
}

// Stats returns a snapshot of the verification pipeline's counters.
func (d *Decoupled) Stats() DecoupledStats {
	d.statsMu.Lock()
	st := d.stats
	st.Workers = append([]check.WorkerStat(nil), d.stats.Workers...)
	d.statsMu.Unlock()
	st.Scans = d.scans.Load()
	st.ResultNodesReleased = d.resReleased.Load()
	return st
}

// Close stops the verifier goroutines and waits for them to exit. The
// incremental pipeline performs a final drain first, so every tuple
// published before the call is verified (and reported, if violating) before
// Close returns.
func (d *Decoupled) Close() {
	close(d.stop)
	d.wg.Wait()
}
