package check

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// freshArenaPool returns a pool whose free list has no capacity: it keeps
// nothing, so every Get is a never-used arena.
func freshArenaPool() *arenaPool { return &arenaPool{} }

// TestArenaPoolReuse checks Get/Put recycling, that a recycled arena arrives
// empty, and that Put leaves an arena to the collector once the free list is
// full.
func TestArenaPoolReuse(t *testing.T) {
	p := newArenaPool()
	a1 := p.Get()
	a1.in.Intern(spec.Register(0).Init())
	a1.memo.Reset(1)
	a1.memo.Insert([]uint64{1}, 0)
	a1.ops = append(a1.ops, history.Op{ID: 1})
	a1.tailLifted = append(a1.tailLifted, &a1.nodes(3)[0])
	p.Put(a1)
	a2 := p.Get()
	if a2 != a1 {
		t.Fatal("pool did not recycle the released arena")
	}
	if a2.in.Len() != 0 || a2.memo.Len() != 0 || len(a2.ops) != 0 || a2.free != nil {
		t.Fatalf("recycled arena not empty: interner=%d memo=%d ops=%d spare nodes=%d",
			a2.in.Len(), a2.memo.Len(), len(a2.ops), len(a2.free))
	}
	if a2.tailLifted[:1][0] != nil {
		// A node leads to its search's stack, and so to the states of a
		// search that is over: a pooled arena would pin them.
		t.Fatal("recycled arena still references a node of the previous search")
	}
	a2.memo.Reset(1)
	if !a2.memo.Insert([]uint64{1}, 0) {
		t.Fatal("recycled memo remembered a pre-recycle configuration")
	}

	for i := 0; i <= maxPooledArenas; i++ {
		p.Put(newSearchArena())
	}
	if len(p.free) != maxPooledArenas {
		t.Fatalf("free list holds %d arenas, want its bound of %d", len(p.free), maxPooledArenas)
	}
	fresh := freshArenaPool()
	fresh.Put(fresh.Get())
	if len(fresh.free) != 0 {
		t.Fatal("a pool without free-list capacity kept an arena")
	}
}

// TestArenaPoolConcurrent hammers Get/Put from many goroutines under -race.
func TestArenaPoolConcurrent(t *testing.T) {
	p := newArenaPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := spec.Counter().Init()
			for i := 0; i < 200; i++ {
				a := p.Get()
				if id, _ := a.in.Intern(st); id != 0 {
					t.Errorf("goroutine %d: arena not empty (id %d)", g, id)
					return
				}
				a.memo.Reset(1)
				a.memo.Insert([]uint64{uint64(i)}, 0)
				p.Put(a)
			}
		}(g)
	}
	wg.Wait()
}

// runPooledEquiv drives the same streams through two sets of monitors. The
// pooled set shares one arena pool and is appended to round-robin, so every
// search runs in an arena some other monitor's search just handed back. The
// reference set's pools keep nothing, so every search there gets a fresh
// arena — the memory discipline before arenas were pooled. A recycled arena
// that carried anything over (an interned state, a memo entry, a stack frame,
// a seenFinal bit) changes what some search prunes, and shows up as a verdict
// or a counter that differs.
func runPooledEquiv(t *testing.T, m spec.Model, streams [][]history.History, cfg Config, label string) {
	t.Helper()
	shared := newArenaPool()
	pooled := make([]*Incremental, len(streams))
	fresh := make([]*Incremental, len(streams))
	for i := range streams {
		pooled[i] = NewIncremental(m, WithConfig(cfg))
		pooled[i].pool = shared
		fresh[i] = NewIncremental(m, WithConfig(cfg))
		fresh[i].pool = freshArenaPool()
	}
	for k := 0; ; k++ {
		live := false
		for i, bursts := range streams {
			if k >= len(bursts) {
				continue
			}
			live = true
			vp, vf := pooled[i].Append(bursts[k]), fresh[i].Append(bursts[k])
			if vp != vf {
				t.Fatalf("%s: stream %d burst %d: pooled verdict %v, fresh-arena verdict %v", label, i, k, vp, vf)
			}
			if sp, sf := pooled[i].Stats(), fresh[i].Stats(); sp != sf {
				t.Fatalf("%s: stream %d burst %d: stats diverged\npooled: %+v\nfresh:  %+v", label, i, k, sp, sf)
			}
		}
		if !live {
			return
		}
	}
}

// pooledEquivStreams builds three streams of one model: two random
// linearizable ones and a mutation, so a refuted monitor's arenas go back to
// the pool mid-run too.
func pooledEquivStreams(m spec.Model, seed int64, procs, ops, burst int) [][]history.History {
	h0 := trace.RandomLinearizable(m, seed, procs, ops)
	h1 := trace.RandomLinearizable(m, seed+101, procs, ops)
	return [][]history.History{
		splitBursts(h0, burst),
		splitBursts(h1, burst+1),
		splitBursts(trace.Mutate(h0, seed+7), burst),
	}
}

// TestPooledScratchEquivalence is the deterministic tier-1 leg of
// FuzzPooledScratchEquivalence: every model, retained (tight budgets, so
// enumerations overflow mid-walk and hand back half-used arenas) and
// full-witness, plus the frontier workload the pooling exists for (with the
// fast tier off: the tier decides every burst of it, and no arena is drawn).
func TestPooledScratchEquivalence(t *testing.T) {
	retained := Config{Retain: true, Retention: RetentionPolicy{GCBatch: 8, StateBudget: 24, MaxFrontierStates: 3}}
	for _, m := range fuzzModels() {
		for seed := int64(1); seed <= 3; seed++ {
			streams := pooledEquivStreams(m, seed*13, 3, 36, 5)
			label := fmt.Sprintf("%s seed=%d", m.Name(), seed)
			runPooledEquiv(t, m, streams, retained, label+" retained")
			runPooledEquiv(t, m, streams, Config{}, label+" full-witness")
			runPooledEquiv(t, m, streams, Config{Retain: true, Parallelism: 3}, label+" parallel")
		}
	}
	frontier := [][]history.History{trace.FrontierRounds(3, false), trace.FrontierRounds(3, true)}
	runPooledEquiv(t, spec.Queue(), frontier, Config{Retain: true, NoFastTier: true}, "frontier")
}

// FuzzPooledScratchEquivalence lets the native fuzzer pick the model, the
// stream shape and the retention budgets.
func FuzzPooledScratchEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(40), uint8(5), int64(1), uint8(8), uint8(24), uint8(3), uint8(1))
	f.Add(uint8(1), uint8(2), uint8(60), uint8(11), int64(9), uint8(3), uint8(0), uint8(1), uint8(0))
	f.Add(uint8(2), uint8(4), uint8(24), uint8(2), int64(3), uint8(15), uint8(40), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, which, procs, size, burst uint8, seed int64, gcb, budget, maxf, mode uint8) {
		models := fuzzModels()
		m := models[int(which)%len(models)]
		p := 2 + int(procs)%3
		n := 8 + int(size)%32 // under 40 ops: see FuzzRetentionBudgetWidths
		c := 1 + int(burst)%16
		var cfg Config
		switch mode % 3 {
		case 1:
			cfg = Config{Retain: true, Retention: budgetPolicy(gcb, budget, maxf, 0)}
		case 2:
			cfg = Config{Retain: true, Retention: budgetPolicy(gcb, budget, maxf, 1), Parallelism: 2 + int(maxf)%3}
		}
		runPooledEquiv(t, m, pooledEquivStreams(m, seed, p, n, c), cfg, "fuzz")
	})
}

// TestShardsFrontierRace runs frontier streams through a 2-worker Shards
// under -race: four monitors on one shared arena pool, two of them searching
// at any moment, each round handing six arenas back while the other shard
// draws its own. An arena reachable from two searches at once is a data race
// the detector reports; one that leaks state across searches breaks the
// stats comparison against standalone monitors. The fast tier is off: it
// decides every burst of this workload, and the searches are the subject.
func TestShardsFrontierRace(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	cfg := Config{Retain: true, NoFastTier: true}
	streams := [][]history.History{
		trace.FrontierRounds(rounds, false), trace.FrontierRounds(rounds, true),
		trace.FrontierRounds(rounds, true), trace.FrontierRounds(rounds, false),
	}
	models := make([]spec.Model, len(streams))
	solo := make([]*Incremental, len(streams))
	for i := range streams {
		models[i] = spec.Queue()
		solo[i] = NewIncremental(spec.Queue(), WithConfig(cfg))
	}
	sh := NewShards(models, 2, WithConfig(cfg))
	for i := 0; i < sh.Len(); i++ {
		if sh.Shard(i).pool != sh.pool {
			t.Fatalf("shard %d does not draw from the shared pool", i)
		}
	}
	deltas := make([]history.History, len(streams))
	for k := range streams[0] {
		for i := range streams {
			deltas[i] = streams[i][k]
		}
		got := sh.Append(deltas)
		for i := range streams {
			if want := solo[i].Append(deltas[i]); got[i] != want || want != Yes {
				t.Fatalf("burst %d shard %d: verdict %v, standalone %v, want Yes", k, i, got[i], want)
			}
			if sh.Shard(i).Stats() != solo[i].Stats() {
				t.Fatalf("burst %d shard %d: stats diverged from the standalone monitor\nshard: %+v\nsolo:  %+v",
					k, i, sh.Shard(i).Stats(), solo[i].Stats())
			}
		}
	}
	if n := len(sh.pool.free); n == 0 || n > maxPooledArenas {
		t.Fatalf("shared pool holds %d arenas after the run, want 1..%d", n, maxPooledArenas)
	}
}
