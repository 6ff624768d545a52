package trace

import (
	"math/rand"

	"repro/internal/history"
	"repro/internal/spec"
)

// neverQuiescentMethods maps a strongly-ordered model to its producer
// (insert) and observer (remove) methods.
func neverQuiescentMethods(model string) (producer, observer string, ok bool) {
	switch model {
	case "queue":
		return spec.MethodEnq, spec.MethodDeq, true
	case "stack":
		return spec.MethodPush, spec.MethodPop, true
	case "pqueue":
		return spec.MethodInsert, spec.MethodMin, true
	}
	return "", "", false
}

// NeverQuiescent generates a well-formed history over procs processes
// (at least 3; smaller values are raised) and nops operations that is
// linearizable by construction and never globally quiescent: from the first
// event to the last, every boundary strictly inside the history has at least
// one operation pending. It is the workload behind the B12 family — the
// stream shape on which quiescent-cut retention (check.Config.Retain)
// degrades to unbounded growth, and which commit-point-order cuts
// (check.RetentionPolicy.CommitCuts) keep bounded.
//
// The shape is a chain of overlapping producer operations: processes 0 and 1
// alternate "links" — each link's insert is invoked before the previous
// link's insert returns, so no global gap ever opens — while the remaining
// processes run completed operations between links. Three properties are by
// design, not accident:
//
//   - every pending operation is always a producer: chain links are inserts,
//     and interior operations complete immediately — so commit-point cut
//     candidates occur throughout the stream;
//   - a pending producer's value is never observed before it returns: chain
//     links take fresh ascending arguments and linearize at their return
//     (the value enters the reference oracle only then), so no removal can
//     have returned it earlier and pinned the link;
//   - every interior block drains the structure and closes with a removal
//     that records "empty". The empty response is incompatible with any
//     speculatively linearized pending insert, so a monitor's greedy
//     persistent search is contradicted within one block when it floats a
//     pending chain link too early — without this, the mis-speculation
//     survives until the buried value surfaces and the backtrack is
//     combinatorial, which would make even the unbounded oracle monitor
//     infeasible on long streams.
//
// Interior blocks occasionally run two inserts fully concurrently (when
// procs >= 5), so the exact frontier at a cut holds several states and the
// multi-state machinery (dead states, parallel fan-out) is exercised under
// commit-point cuts too. The final chain link is left pending forever, so
// the stream does not even quiesce at its end.
//
// Only the strongly-ordered models are supported (queue, stack, pqueue);
// other models panic, since a never-quiescent stream is only generable here
// through the producer/observer split.
func NeverQuiescent(model spec.Model, seed int64, procs, nops int) history.History {
	prodMethod, obsMethod, ok := neverQuiescentMethods(model.Name())
	if !ok {
		panic("trace: NeverQuiescent needs a strongly-ordered model (queue, stack, pqueue), got " + model.Name())
	}
	if procs < 3 {
		procs = 3
	}
	rng := rand.New(rand.NewSource(seed))
	oracle := spec.NewOracle(model)
	var uniq UniqSource
	nextArg := int64(1)
	var h history.History
	started := 0

	newProd := func() spec.Operation {
		arg := nextArg
		nextArg++
		return spec.Operation{Method: prodMethod, Arg: arg, Uniq: uniq.Next()}
	}
	inv := func(p int, op spec.Operation) {
		h = append(h, history.Event{Kind: history.Invoke, Proc: p, ID: op.Uniq, Op: op})
	}
	ret := func(p int, op spec.Operation, res spec.Response) {
		h = append(h, history.Event{Kind: history.Return, Proc: p, ID: op.Uniq, Op: op, Res: res})
	}
	size := 0 // values currently held by the oracle
	apply := func(op spec.Operation) spec.Response {
		res, ok := oracle.Apply(op)
		if !ok {
			res = spec.Response{} // unreachable for these total models
		}
		if op.Method == prodMethod {
			size++
		} else if res.Kind == spec.KindValue {
			size--
		}
		return res
	}
	// One completed interior operation on p, linearizing at its invocation.
	interior := func(p int, op spec.Operation) {
		res := apply(op)
		inv(p, op)
		ret(p, op, res)
		started++
	}
	obsOp := func() spec.Operation {
		return spec.Operation{Method: obsMethod, Uniq: uniq.Next()}
	}
	iproc := func() int { return 2 + rng.Intn(procs-2) }
	// Two fully concurrent interior inserts: both invoked, then both applied
	// in a random order, then both returned — an ambiguous pair whose two
	// linearisations reach different states, so the frontier at a cut landing
	// before the drain holds more than one state. Producer responses are
	// state-independent, so the recorded responses are valid for either
	// order.
	pair := func(p1, p2 int) {
		a, b := newProd(), newProd()
		inv(p1, a)
		inv(p2, b)
		var ra, rb spec.Response
		if rng.Intn(2) == 0 {
			ra = apply(a)
			rb = apply(b)
		} else {
			rb = apply(b)
			ra = apply(a)
		}
		ret(p1, a, ra)
		ret(p2, b, rb)
		started += 2
	}

	// Open the chain.
	chain := newProd()
	chainProc := 0
	inv(chainProc, chain)
	started++
	for started < nops {
		// A block of completed interior operations while the link is open:
		// drain what the previous links left behind, run a few balanced
		// insert/remove rounds, and close with the removal that records
		// "empty" (see the type comment for why the block must end empty).
		for size > 0 {
			interior(iproc(), obsOp())
		}
		rounds := 1 + rng.Intn(3)
		for r := 0; r < rounds; r++ {
			if procs >= 5 && rng.Intn(4) == 0 {
				p := 2 + rng.Intn(procs-3)
				pair(p, p+1)
			} else {
				interior(iproc(), newProd())
			}
			for size > 0 {
				interior(iproc(), obsOp())
			}
		}
		interior(iproc(), obsOp()) // records "empty"
		// Overlap the next link before closing this one: the stream passes
		// through no globally quiescent point. The closing link linearizes
		// at its return — its value enters the oracle only now, so no
		// earlier removal can have observed it.
		next := newProd()
		nextProc := 1 - chainProc
		inv(nextProc, next)
		started++
		ret(chainProc, chain, apply(chain))
		chain, chainProc = next, nextProc
	}
	return h // the last link stays pending: not even the end quiesces
}
