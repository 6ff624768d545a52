package check

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/history"
	"repro/internal/spec"
)

// This file is the monitor half of the durable-state subsystem (DESIGN.md
// §2h): Checkpoint exports an Incremental monitor's complete resume state as
// a MonitorImage — a plain, JSON-serialisable value — and RestoreIncremental
// rebuilds a monitor from one that is verdict-identical to the original under
// every future Append. The envelope/atomic-write layer around images lives in
// internal/ckpt; the service glue in internal/monitorserver.
//
// What an image carries is exactly the state the Append pipeline consults:
// the retained window (an exact event codec — history's wire form collapses
// Op.Uniq into ID, which is too lossy for resume), the GC base position and
// its exact state set, the committed cut and pending quiescent boundaries,
// the frontier state set with per-state refutation flags, the commit-cut
// planner's full residency/pinning state, the per-kind discard counters, the
// verdict/error, the cumulative IncStats, and the Config that produced it
// all.
//
// What an image deliberately does NOT carry:
//
//   - the persistent per-state segment searches: a restored monitor starts
//     them nil and the next segment check rebuilds each over the current
//     segment, which is exactly the path an in-memory monitor takes after
//     every compaction. Verdicts and all outcome counters are unaffected;
//     only the effort counters (SearchResumes, SearchRebuilds, SegExplored,
//     ParallelRounds) can differ from the uninterrupted run, because resumed
//     search work is redone. checkpoint_test.go pins this split.
//   - pendingOp/seenIDs: both are pure functions of the retained window
//     (GC already prunes them in lockstep with it), so restore re-derives
//     them, and a disagreement inside the image cannot exist by construction.
//     Park drops them for the same reason.
//   - worker-slot diagnostics (WorkerStat): scheduling-dependent by contract.
//
// Older images may carry fields this build no longer reads, such as "marks"
// (past cuts with their state sets). Decoding ignores them as unknown
// fields, which loses nothing: the collector only ever cuts at the committed
// frontier, from that cut's own state set, so a past cut is never consulted.
//
// Restore validates everything it cannot re-derive — unknown model, config
// mismatch with planner presence, out-of-range positions, undecodable states,
// a window that fails well-formedness replay — and fails with an error rather
// than resuming wrong: the ckpt layer's checksum catches torn bytes, this
// layer catches structurally-impossible images.

// MonitorImageVersion is the version stamped into MonitorImage; restore
// refuses images from a different version rather than guessing at field
// meanings.
const MonitorImageVersion = 1

// EventImage is the checkpoint codec for one history event. It is exact
// where history.WireEvent is lossy: Op.Uniq and the response kind/value are
// carried verbatim, so the restored window is bit-identical to the retained
// one.
type EventImage struct {
	Kind    uint8  `json:"k"`
	Proc    int    `json:"p"`
	ID      uint64 `json:"id"`
	Method  string `json:"m,omitempty"`
	Arg     int64  `json:"a,omitempty"`
	Uniq    uint64 `json:"u,omitempty"`
	ResKind uint8  `json:"rk,omitempty"`
	ResVal  int64  `json:"rv,omitempty"`
}

// ResidentEntry is one value of a resident multiset. Multisets serialise as
// entry lists (JSON objects cannot key on int64 without stringly encoding).
type ResidentEntry struct {
	V int64 `json:"v"`
	N int   `json:"n"`
}

// PlannedOpImage is the planner's view of one open operation (commitcut.go's
// plannedOp), in invocation order.
type PlannedOpImage struct {
	Proc     int    `json:"p"`
	ID       uint64 `json:"id"`
	Method   string `json:"m"`
	Arg      int64  `json:"a,omitempty"`
	Uniq     uint64 `json:"u,omitempty"`
	Value    int64  `json:"val,omitempty"`
	Producer bool   `json:"prod,omitempty"`
	Pinned   bool   `json:"pin,omitempty"`
	Consumed bool   `json:"cons,omitempty"`
}

// CarriedOpImage identifies a producer carried by a recorded cut candidate.
type CarriedOpImage struct {
	Proc   int    `json:"p"`
	ID     uint64 `json:"id"`
	Method string `json:"m"`
	Arg    int64  `json:"a,omitempty"`
	Uniq   uint64 `json:"u,omitempty"`
}

// CutImage is one recorded commit-point cut candidate.
type CutImage struct {
	Pos     int              `json:"pos"`
	Carried []CarriedOpImage `json:"carried,omitempty"`
}

// PlannerImage serialises the commit-cut planner wholesale. None of it is
// derivable from the window: candidate pacing (LastPos), consumed/pinned
// flags and the void memo all depend on events GC already discarded, so a
// replay-based reconstruction would diverge from the continuous Append path.
type PlannerImage struct {
	Open     []PlannedOpImage `json:"open,omitempty"`
	Resident []ResidentEntry  `json:"resident,omitempty"`
	Void     []uint64         `json:"void,omitempty"`
	Cands    []CutImage       `json:"cands,omitempty"`
	LastPos  int              `json:"last_pos,omitempty"`
}

// MonitorImage is the complete serialisable resume state of an Incremental
// monitor. Frontier and base states use the canonical per-model encoding of
// spec.EncodeState, so images are readable and stable across processes.
type MonitorImage struct {
	Version int    `json:"version"`
	Model   string `json:"model"`
	Config  Config `json:"config,omitzero"`

	Window []EventImage `json:"window"`
	HBase  int          `json:"h_base,omitempty"`
	Base   []string     `json:"base,omitempty"` // nil means {model.Init()}

	CutIdx   int      `json:"cut_idx,omitempty"`
	Cuts     []int    `json:"cuts,omitempty"`
	Frontier []string `json:"frontier"`
	Dead     []bool   `json:"dead,omitempty"`

	Planner      *PlannerImage   `json:"planner,omitempty"`
	BaseResident []ResidentEntry `json:"base_resident,omitempty"`

	RespDropped int   `json:"resp_dropped,omitempty"`
	InvDropped  []int `json:"inv_dropped,omitempty"`

	Verdict int8     `json:"verdict"`
	Err     string   `json:"err,omitempty"`
	Stats   IncStats `json:"stats"`
}

// Model returns the model the monitor was built for.
func (inc *Incremental) Model() spec.Model { return inc.model }

// Checkpoint exports the monitor's complete resume state. The image shares
// nothing with the monitor (all slices are fresh, states are encoded), so it
// stays valid however the monitor moves on. The only unsupported monitors are
// those whose model cannot be recovered by name (spec.ByName) — restore could
// never rebuild them.
func (inc *Incremental) Checkpoint() (*MonitorImage, error) {
	name := inc.model.Name()
	if _, ok := spec.ByName(name); !ok {
		return nil, fmt.Errorf("check: model %q is not restorable by name; cannot checkpoint", name)
	}
	img := &MonitorImage{
		Version:     MonitorImageVersion,
		Model:       name,
		Config:      inc.cfg,
		Window:      encodeEvents(inc.h),
		HBase:       inc.hBase,
		CutIdx:      inc.cutIdx,
		Cuts:        append([]int(nil), inc.cuts...),
		Frontier:    encodeStates(inc.frontier),
		RespDropped: inc.respDropped,
		InvDropped:  append([]int(nil), inc.invDropped...),
		Verdict:     int8(inc.verdict),
		Stats:       inc.stats,
	}
	if inc.base != nil {
		img.Base = encodeStates(inc.base)
	}
	if inc.dead != nil {
		img.Dead = append([]bool(nil), inc.dead...)
	}
	if inc.planner != nil {
		img.Planner = encodePlanner(inc.planner)
	}
	img.BaseResident = encodeResident(inc.baseResident)
	if inc.err != nil {
		img.Err = inc.err.Error()
	}
	return img, nil
}

// RestoreIncremental rebuilds a monitor from img. The result is verdict- and
// outcome-stat-identical to the checkpointed monitor under every future
// Append (the effort counters listed in the file comment may differ, because
// the dropped segment searches are rebuilt). Structurally impossible images
// return an error; a restored monitor is never silently wrong.
func RestoreIncremental(img *MonitorImage) (*Incremental, error) {
	if img == nil {
		return nil, errors.New("check: nil monitor image")
	}
	if img.Version != MonitorImageVersion {
		return nil, fmt.Errorf("check: monitor image version %d, this build reads %d", img.Version, MonitorImageVersion)
	}
	m, ok := spec.ByName(img.Model)
	if !ok {
		return nil, fmt.Errorf("check: monitor image for unknown model %q", img.Model)
	}
	if err := img.Config.Validate(); err != nil {
		return nil, fmt.Errorf("check: monitor image config: %w", err)
	}
	inc := NewIncremental(m, WithConfig(img.Config))

	h, err := decodeEvents(img.Window)
	if err != nil {
		return nil, err
	}
	inc.h = h
	if img.HBase < 0 || img.RespDropped < 0 {
		return nil, fmt.Errorf("check: monitor image: negative discard counters (%d, %d)", img.HBase, img.RespDropped)
	}
	inc.hBase = img.HBase
	if img.CutIdx < 0 || img.CutIdx > len(h) {
		return nil, fmt.Errorf("check: monitor image: cut %d outside window of %d events", img.CutIdx, len(h))
	}
	inc.cutIdx = img.CutIdx
	for _, q := range img.Cuts {
		if q <= 0 || q > len(h) {
			return nil, fmt.Errorf("check: monitor image: quiescent boundary %d outside window of %d events", q, len(h))
		}
	}
	inc.cuts = append([]int(nil), img.Cuts...)

	if len(img.Frontier) == 0 {
		return nil, errors.New("check: monitor image: empty frontier")
	}
	frontier, err := decodeStates(m, img.Frontier)
	if err != nil {
		return nil, err
	}
	inc.frontier = frontier
	inc.searches = make([]*segSearch, len(frontier))
	if inc.retain {
		if img.Dead != nil && len(img.Dead) != len(frontier) {
			return nil, fmt.Errorf("check: monitor image: %d dead flags for %d frontier states", len(img.Dead), len(frontier))
		}
		inc.dead = make([]bool, len(frontier))
		copy(inc.dead, img.Dead)
	}
	if img.Base != nil {
		base, err := decodeStates(m, img.Base)
		if err != nil {
			return nil, err
		}
		inc.base = base
	}

	if (inc.planner != nil) != (img.Planner != nil) {
		return nil, fmt.Errorf("check: monitor image: commit-cut planner presence (%v) disagrees with config/model (%v)",
			img.Planner != nil, inc.planner != nil)
	}
	if img.Planner != nil {
		if err := restorePlanner(inc.planner, img.Planner); err != nil {
			return nil, err
		}
	}
	inc.baseResident = decodeResident(img.BaseResident)

	inc.respDropped = img.RespDropped
	inc.invDropped = append([]int(nil), img.InvDropped...)

	switch Verdict(img.Verdict) {
	case Yes, No:
		inc.verdict = Verdict(img.Verdict)
	default:
		return nil, fmt.Errorf("check: monitor image: invalid verdict %d", img.Verdict)
	}
	if img.Err != "" {
		inc.err = errors.New(img.Err)
	}

	// pendingOp and seenIDs are pure functions of the retained window; derive
	// them by replaying it through the same discipline admit enforces. A
	// refuted monitor may retain a frozen ill-formed window (the violation
	// witness), which Append never consults again — tolerate replay conflicts
	// there, reject them on a Yes image.
	if err := inc.deriveOpenOps(); err != nil && inc.verdict == Yes {
		return nil, err
	}

	inc.stats = img.Stats
	inc.stats.FrontierStates = len(inc.frontier)
	inc.gauges()
	return inc, nil
}

// deriveOpenOps rebuilds pendingOp and seenIDs from the retained window.
// Commit-point cuts restage carried invocations out of original stream
// position, but never reorder one process's events relative to each other, so
// the per-process invoke/return alternation replay relies on is preserved.
func (inc *Incremental) deriveOpenOps() error {
	inc.pendingOp = make(map[int]uint64)
	inc.seenIDs = make(map[uint64]struct{}, len(inc.h)/2)
	for i, e := range inc.h {
		switch e.Kind {
		case history.Invoke:
			if open, busy := inc.pendingOp[e.Proc]; busy {
				return fmt.Errorf("check: monitor image: window event %d: process %d invokes op %d over open op %d", i, e.Proc, e.ID, open)
			}
			if _, dup := inc.seenIDs[e.ID]; dup {
				return fmt.Errorf("check: monitor image: window event %d: duplicate operation id %d", i, e.ID)
			}
			inc.seenIDs[e.ID] = struct{}{}
			inc.pendingOp[e.Proc] = e.ID
		case history.Return:
			if open, busy := inc.pendingOp[e.Proc]; !busy || open != e.ID {
				return fmt.Errorf("check: monitor image: window event %d: response %d matches no open invocation", i, e.ID)
			}
			delete(inc.pendingOp, e.Proc)
		}
	}
	return nil
}

func encodeEvents(h history.History) []EventImage {
	out := make([]EventImage, len(h))
	for i, e := range h {
		out[i] = EventImage{
			Kind:    uint8(e.Kind),
			Proc:    e.Proc,
			ID:      e.ID,
			Method:  e.Op.Method,
			Arg:     e.Op.Arg,
			Uniq:    e.Op.Uniq,
			ResKind: uint8(e.Res.Kind),
			ResVal:  e.Res.Val,
		}
	}
	return out
}

func decodeEvents(in []EventImage) (history.History, error) {
	h := make(history.History, len(in))
	for i, ei := range in {
		k := history.Kind(ei.Kind)
		if k != history.Invoke && k != history.Return {
			return nil, fmt.Errorf("check: monitor image: window event %d: invalid kind %d", i, ei.Kind)
		}
		h[i] = history.Event{
			Kind: k,
			Proc: ei.Proc,
			ID:   ei.ID,
			Op:   spec.Operation{Method: ei.Method, Arg: ei.Arg, Uniq: ei.Uniq},
			Res:  spec.Response{Kind: spec.Kind(ei.ResKind), Val: ei.ResVal},
		}
	}
	return h, nil
}

func encodeStates(states []spec.State) []string {
	out := make([]string, len(states))
	for i, s := range states {
		out[i] = spec.EncodeState(s)
	}
	return out
}

func decodeStates(m spec.Model, encs []string) ([]spec.State, error) {
	out := make([]spec.State, len(encs))
	for i, enc := range encs {
		s, err := spec.DecodeState(m, enc)
		if err != nil {
			return nil, fmt.Errorf("check: monitor image: %w", err)
		}
		out[i] = s
	}
	return out, nil
}

func encodeResident(m map[int64]int) []ResidentEntry {
	if len(m) == 0 {
		return nil
	}
	// Canonical order keeps byte-identical re-checkpoints byte-identical.
	out := make([]ResidentEntry, 0, len(m))
	for v, n := range m {
		out = append(out, ResidentEntry{V: v, N: n})
	}
	sortResident(out)
	return out
}

func sortResident(entries []ResidentEntry) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].V < entries[j-1].V; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

func decodeResident(entries []ResidentEntry) map[int64]int {
	if len(entries) == 0 {
		return nil
	}
	m := make(map[int64]int, len(entries))
	for _, e := range entries {
		m[e.V] += e.N
	}
	return m
}

func encodePlanner(pl *cutPlanner) *PlannerImage {
	img := &PlannerImage{LastPos: pl.lastPos}
	for _, id := range pl.order {
		po := pl.pending[id]
		img.Open = append(img.Open, PlannedOpImage{
			Proc:     po.proc,
			ID:       id,
			Method:   po.op.Method,
			Arg:      po.op.Arg,
			Uniq:     po.op.Uniq,
			Value:    po.value,
			Producer: po.producer,
			Pinned:   po.pinned,
			Consumed: po.consumed,
		})
	}
	img.Resident = encodeResident(pl.resident)
	if len(pl.void) > 0 {
		img.Void = make([]uint64, 0, len(pl.void))
		for id := range pl.void {
			img.Void = append(img.Void, id)
		}
		sortUint64(img.Void)
	}
	for _, c := range pl.cands {
		ci := CutImage{Pos: c.pos}
		for _, co := range c.carried {
			ci.Carried = append(ci.Carried, CarriedOpImage{
				Proc: co.proc, ID: co.id, Method: co.op.Method, Arg: co.op.Arg, Uniq: co.op.Uniq,
			})
		}
		img.Cands = append(img.Cands, ci)
	}
	return img
}

func sortUint64(ids []uint64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func restorePlanner(pl *cutPlanner, img *PlannerImage) error {
	for _, o := range img.Open {
		if _, dup := pl.pending[o.ID]; dup {
			return fmt.Errorf("check: monitor image: planner op %d recorded twice", o.ID)
		}
		pl.pending[o.ID] = &plannedOp{
			proc:     o.Proc,
			op:       spec.Operation{Method: o.Method, Arg: o.Arg, Uniq: o.Uniq},
			value:    o.Value,
			producer: o.Producer,
			pinned:   o.Pinned,
			consumed: o.Consumed,
		}
		pl.order = append(pl.order, o.ID)
	}
	for _, e := range img.Resident {
		if e.N <= 0 {
			return fmt.Errorf("check: monitor image: resident count %d for value %d", e.N, e.V)
		}
		pl.resident[e.V] += e.N
		pl.residentCount += e.N
	}
	for _, id := range img.Void {
		pl.void[id] = struct{}{}
	}
	for _, c := range img.Cands {
		cc := commitCut{pos: c.Pos}
		for _, co := range c.Carried {
			cc.carried = append(cc.carried, carriedOp{
				proc: co.Proc, id: co.ID,
				op: spec.Operation{Method: co.Method, Arg: co.Arg, Uniq: co.Uniq},
			})
		}
		pl.cands = append(pl.cands, cc)
	}
	pl.lastPos = img.LastPos
	return nil
}

// Park shrinks an idle monitor to what a checkpoint image holds: the monitor
// afterwards behaves exactly like RestoreIncremental(inc.Checkpoint()) — same
// verdicts and the same IncStats under every future Append — and its image is
// unchanged. What it drops is what restore rebuilds:
//
//   - the persistent segment searches, whose arenas go back to the pool (a
//     Shards' shared one); the next segment check rebuilds each search over
//     the current segment, as after a restore;
//   - pendingOp and seenIDs, which the next non-empty Append re-derives from
//     the window (ensureOpenOps);
//   - the spare capacity of the window and the quiescent-boundary queue;
//   - the state chains the segment searches grew from the frontier states,
//     which are replaced by spec.Detach copies, so the chains' arena chunks
//     and successor caches become garbage. The GC base is never a search
//     root (window reloads start from detached copies of it), so it has no
//     chain to drop.
//
// The monitoring service parks an object's monitor when its session says
// bye. The object is not ended — a reopen appends to it as before.
func (inc *Incremental) Park() {
	inc.releaseSearches()
	clear(inc.searches)
	inc.pendingOp, inc.seenIDs = nil, nil
	inc.h = slices.Clone(inc.h)
	inc.cuts = slices.Clone(inc.cuts)
	inc.frontier = detachStates(inc.frontier)
}

// ensureOpenOps rebuilds pendingOp and seenIDs after Park. The window of a
// Yes monitor is well-formed by construction (admit accepted every event of
// it), so a replay conflict here is a broken invariant, not bad input.
func (inc *Incremental) ensureOpenOps() {
	if inc.pendingOp != nil {
		return
	}
	if err := inc.deriveOpenOps(); err != nil {
		panic("check: parked window fails replay: " + err.Error())
	}
}
