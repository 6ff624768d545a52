package core

import (
	"errors"
	"fmt"

	"repro/internal/check"
	"repro/internal/genlin"
	"repro/internal/history"
)

// ResumeIncVerifier rebuilds an incremental verification pipeline around a
// monitor restored from a durable checkpoint (check.RestoreIncremental): the
// re-anchoring half of crash recovery, pairing with Decoupled.CheckpointMonitor
// as the export half. The assembler's announce floors, per-process trackers
// and §2 well-formedness state are derived from the restored monitor itself —
// the announce floor of process p is exactly the monitor's discarded
// invocation count plus p's invocations still in the retained window, and p's
// pending operation is readable off the window — so the resumed pipeline is
// exact for the streams a restart actually sees: continuations, where every
// tuple published after the checkpoint carries a view at least as large as
// the checkpointed announce counts. A tuple from *before* the checkpoint
// (a late publication behind the resume point) breaks the append order and
// falls into the rebuild path, which has no retained tuples to rebuild from
// and surfaces a sticky ViewsError — loud, never a silent wrong verdict.
//
// obj must be linearizability of the same sequential model the monitor was
// checkpointed under; the generic-object path needs the full history by
// definition and cannot be resumed.
func ResumeIncVerifier(n int, obj genlin.Object, inc *check.Incremental) (*IncVerifier, error) {
	if inc == nil {
		return nil, errors.New("core: resume: nil monitor")
	}
	m := genlin.Model(obj)
	if m == nil {
		return nil, errors.New("core: resume: object is not linearizability of a sequential model")
	}
	if m.Name() != inc.Model().Name() {
		return nil, fmt.Errorf("core: resume: object model %q, monitor checkpointed under %q", m.Name(), inc.Model().Name())
	}
	cfg := inc.Config()
	iv := &IncVerifier{
		n:         n,
		obj:       obj,
		inc:       inc,
		consumed:  make([]int, n),
		annPrev:   make([]int, n),
		seen:      make(map[uint64]struct{}),
		pendingOp: make(map[int]uint64),
		cfg:       cfg,
		retain:    cfg.Retain,
		respHead:  inc.DiscardedResponses(),
		verdict:   inc.Verdict(),
		err:       inc.Err(),
	}
	if iv.retain {
		iv.baseAnn = make([]int, n)
		for p, d := range inc.DiscardedInvocations() {
			if p < n {
				iv.baseAnn[p] = d
			}
		}
		copy(iv.annPrev, iv.baseAnn)
	}
	for _, e := range inc.History() {
		if e.Proc < 0 || e.Proc >= n {
			return nil, fmt.Errorf("core: resume: window event for process %d, pipeline has %d", e.Proc, n)
		}
		switch e.Kind {
		case history.Invoke:
			iv.annPrev[e.Proc]++
			iv.pendingOp[e.Proc] = e.ID
		case history.Return:
			delete(iv.pendingOp, e.Proc)
			// The window's retained responses have no tuples in the rebuild
			// buffer (their tuples died with the checkpointed process), so the
			// release cursor starts past them: GC discards responses in window
			// order, reaches them first, and only then pops tuples this
			// pipeline actually ingested.
			iv.respHead++
		}
	}
	// Each completed operation of p produced exactly one published tuple, so
	// the ingest cursor resumes at the response count; the view trackers resume
	// at the announce counts (the checkpointed stream's last group).
	for p := 0; p < n; p++ {
		iv.consumed[p] = iv.annPrev[p]
		if _, busy := iv.pendingOp[p]; busy {
			iv.consumed[p]--
		}
	}
	iv.lastCounts = append([]int(nil), iv.annPrev...)
	iv.stats.Check = inc.Stats()
	return iv, nil
}

// CheckpointMonitor exports the dispatcher monitor's complete resume state
// (check.Incremental.Checkpoint) — the export half of crash recovery, pairing
// with ResumeIncVerifier. It must be called after Close: the dispatcher owns
// the monitor until its final drain, and Close's wait is the happens-before
// edge that makes the image a settled snapshot rather than a data race.
// It errors when the pipeline was built without verifiers and on the
// generic-object path, neither of which has an incremental monitor to
// export.
func (d *Decoupled) CheckpointMonitor() (*check.MonitorImage, error) {
	d.statsMu.Lock()
	iv := d.verifier
	d.statsMu.Unlock()
	if iv == nil {
		return nil, errors.New("core: no incremental verification pipeline to checkpoint (no verifiers)")
	}
	if iv.inc == nil {
		return nil, errors.New("core: generic-object pipeline has no monitor image")
	}
	return iv.inc.Checkpoint()
}
