package spec

// PerValueMatched marks models whose linearizability analysis decomposes
// along insert/remove value pairing: every operation that moves data either
// inserts exactly one value or removes (returns) exactly one value, so a
// history can be regrouped per value — the decomposition behind the
// decrease-and-conquer monitors of arXiv:2410.04581 and arXiv:2509.17795 and
// the log-linear fast tier in internal/check/loglin.
//
// The capability is strictly weaker than StronglyOrdered: a strongly-ordered
// model's producers are per-value inserts with state-independent responses,
// but PerValueMatched does not require response state-independence, which is
// what lets the set implement it (Add(v) answers false when v is present, so
// Add is not a producer, yet it still inserts exactly v and pairs with the
// Remove that returns v). Queue, stack, priority queue and set implement the
// interface; counter, register, consensus and snapshot do not (their
// operations are not per-value — an Inc or a Write has no removal to pair
// with).
//
// The contract, for every history the model admits:
//
//   - InsertValue classifies by invocation alone: whether op, if linearized,
//     attempts to insert its value. For the set, an Add whose value is
//     already present inserts nothing — the attempt classification is still
//     correct for matching, because a per-value analysis sees the failure in
//     the response (BoolResp(false)) and never pairs it with a removal;
//   - RemoveValue classifies a completed operation by its recorded response:
//     the value the operation provably removed from the structure. A removal
//     that answered "empty"/false removed nothing and reports ok=false;
//   - RemovedEmpty reports whether a completed removal observed the whole
//     structure empty — the responses whose linearization points must land
//     at a moment with no resident value (queue/stack/pqueue "empty"). The
//     set's Remove(v)=false observes only v's absence, not global emptiness,
//     so the set never reports true;
//   - Resident lists a state's values in insert order, so inserting them one
//     after another into Init reaches that state: a frontier state is then
//     the same thing as a sequential, completed prefix of inserts, which is
//     how internal/check runs the log-linear tier from any state.
type PerValueMatched interface {
	Model

	// InsertValue reports the value op inserts (or attempts to insert) into
	// the structure; ok is false for operations that never insert.
	InsertValue(op Operation) (value int64, ok bool)

	// RemoveValue reports the value a completed operation removed from the
	// structure, given its recorded response; ok is false when it removed
	// nothing.
	RemoveValue(op Operation, res Response) (value int64, ok bool)

	// RemovedEmpty reports whether a completed operation observed the whole
	// structure empty.
	RemovedEmpty(op Operation, res Response) bool

	// Resident reports the values resident in st in insert order: front to
	// back for the queue, bottom to top for the stack, and any order for the
	// set and the priority queue, whose states do not depend on it. ok is
	// false when st is not a state of this model. The slice aliases st and
	// must not be modified.
	Resident(st State) (vals []int64, ok bool)
}

// Resident is implemented once, on the window states all four models share:
// each window already holds its values in insert order (the set and the
// priority queue keep theirs sorted, which is one valid order).

func (queueModel) Resident(st State) ([]int64, bool)  { return resident(st, seqQueue) }
func (stackModel) Resident(st State) ([]int64, bool)  { return resident(st, seqStack) }
func (setModel) Resident(st State) ([]int64, bool)    { return resident(st, seqSet) }
func (pqueueModel) Resident(st State) ([]int64, bool) { return resident(st, seqPQueue) }

func resident(st State, k seqKind) ([]int64, bool) {
	s, ok := st.(*seqState)
	if !ok || s.kind != k {
		return nil, false
	}
	w := s.window()
	return w[:len(w):len(w)], true // capped: an append must not reach the shared backing
}

// Queue: Enq inserts; Deq removes the value it returns, or observes
// emptiness.

func (queueModel) InsertValue(op Operation) (int64, bool) {
	return op.Arg, op.Method == MethodEnq
}

func (queueModel) RemoveValue(op Operation, res Response) (int64, bool) {
	return res.Val, op.Method == MethodDeq && res.Kind == KindValue
}

func (queueModel) RemovedEmpty(op Operation, res Response) bool {
	return op.Method == MethodDeq && res.Kind == KindEmpty
}

// Stack: Push inserts; Pop removes the value it returns, or observes
// emptiness.

func (stackModel) InsertValue(op Operation) (int64, bool) {
	return op.Arg, op.Method == MethodPush
}

func (stackModel) RemoveValue(op Operation, res Response) (int64, bool) {
	return res.Val, op.Method == MethodPop && res.Kind == KindValue
}

func (stackModel) RemovedEmpty(op Operation, res Response) bool {
	return op.Method == MethodPop && res.Kind == KindEmpty
}

// Priority queue: Insert inserts; ExtractMin removes the value it returns,
// or observes emptiness.

func (pqueueModel) InsertValue(op Operation) (int64, bool) {
	return op.Arg, op.Method == MethodInsert
}

func (pqueueModel) RemoveValue(op Operation, res Response) (int64, bool) {
	return res.Val, op.Method == MethodMin && res.Kind == KindValue
}

func (pqueueModel) RemovedEmpty(op Operation, res Response) bool {
	return op.Method == MethodMin && res.Kind == KindEmpty
}

// Set: Add attempts to insert its argument; a Remove that answered true
// removed it. Remove(v)=false observes v's absence only, never global
// emptiness, and Contains observes without removing — neither pairs.

func (setModel) InsertValue(op Operation) (int64, bool) {
	return op.Arg, op.Method == MethodAdd
}

func (setModel) RemoveValue(op Operation, res Response) (int64, bool) {
	return op.Arg, op.Method == MethodRemove && res.Kind == KindTrue
}

func (setModel) RemovedEmpty(Operation, Response) bool { return false }
