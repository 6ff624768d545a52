package core

import (
	"repro/internal/conslist"
	"repro/internal/genlin"
	"repro/internal/history"
	"repro/internal/snapshot"
	"repro/internal/spec"
)

// Report is an (ERROR, X(τ)) report of the verifier (Line 11 of Figure 10):
// a witness history of A* that does not belong to the object. Predictive
// soundness (Theorem 8.1) guarantees the witness really is a history of A*.
// A decoupled pipeline's Witness is its IncVerifier's (see Witness there):
// the window of a refuted monitor, which nothing rewrites any more. A caller
// that takes a witness from a monitor that is still running must clone it.
type Report struct {
	Proc    int
	Witness history.History
}

// Verifier is the wait-free predictive verifier V_O of Figure 10 for an
// object O in GenLin and an implementation A* in DRV. It uses only read/write
// base objects (the snapshots) and O(n) snapshot operations per iteration.
type Verifier struct {
	n   int
	drv *DRV
	obj genlin.Object
	m   snapshot.Snapshot[*conslist.Node[Tuple]]
	// res[p] is process p's local res_p set (Line 01/06), a persistent list
	// read and written only by p.
	res []*conslist.Node[Tuple]
}

// VerifierOption configures a Verifier.
type VerifierOption func(*Verifier)

// WithResultSnapshot replaces the default Afek result snapshot M.
func WithResultSnapshot(s snapshot.Snapshot[*conslist.Node[Tuple]]) VerifierOption {
	return func(v *Verifier) { v.m = s }
}

// NewVerifier builds V_O over an existing A* (Figure 10).
func NewVerifier(drv *DRV, obj genlin.Object, opts ...VerifierOption) *Verifier {
	v := &Verifier{
		n:   drv.N(),
		drv: drv,
		obj: obj,
		res: make([]*conslist.Node[Tuple], drv.N()),
	}
	for _, opt := range opts {
		opt(v)
	}
	if v.m == nil {
		v.m = snapshot.NewAfek[*conslist.Node[Tuple]](drv.N())
	}
	return v
}

// N returns the number of processes.
func (v *Verifier) N() int { return v.n }

// Object returns the object being verified.
func (v *Verifier) Object() genlin.Object { return v.obj }

// Do executes one iteration of the while loop of Figure 10 (Lines 04–12) for
// process proc with the chosen operation op: it applies op through A*,
// publishes the 4-tuple, snapshots all published tuples, reconstructs X(τ)
// and tests membership in O. A non-nil Report is the (ERROR, X(τ)) report.
func (v *Verifier) Do(proc int, op spec.Operation) (spec.Response, View, *Report) {
	// Lines 04–05.
	y, view := v.drv.Apply(proc, op)
	// Lines 06–07.
	v.res[proc] = conslist.Push(v.res[proc], Tuple{Proc: proc, Op: op, Res: y, View: view})
	v.m.Update(proc, v.res[proc])
	// Lines 08–09.
	tuples := v.collect(proc)
	// Lines 10–12.
	if rep := v.judge(proc, tuples); rep != nil {
		return y, view, rep
	}
	return y, view, nil
}

// collect performs Lines 08–09: scan M and take the union of all entries.
func (v *Verifier) collect(proc int) []Tuple {
	heads := v.m.Scan(proc)
	var tuples []Tuple
	for _, h := range heads {
		tuples = append(tuples, h.Ascending()...)
	}
	return tuples
}

// judge performs Lines 10–12: reconstruct X(τ) and test membership.
func (v *Verifier) judge(proc int, tuples []Tuple) *Report {
	x, err := BuildHistory(tuples, v.n)
	if err != nil {
		// Corrupted views cannot come from a DRV implementation; whatever
		// produced them is certainly not correct with respect to O.
		return &Report{Proc: proc, Witness: x}
	}
	if !v.obj.Contains(x) {
		return &Report{Proc: proc, Witness: x}
	}
	return nil
}

// Certify returns a history similar to the current history of the wrapped
// implementation (Theorem 8.2(3)): the X of a fresh snapshot of the
// published tuples. The caller can retain it as an audit certificate.
func (v *Verifier) Certify(proc int) (history.History, error) {
	return BuildHistory(v.collect(proc), v.n)
}

// RunProc drives the infinite while loop of Figure 10 for one process: it
// draws operations from next and reports errors until stop is closed. It is
// a convenience for long-running monitors; tests and short-lived callers use
// Do directly.
func (v *Verifier) RunProc(proc int, stop <-chan struct{}, next func() spec.Operation, report func(Report)) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		_, _, rep := v.Do(proc, next())
		if rep != nil && report != nil {
			report(*rep)
		}
	}
}
