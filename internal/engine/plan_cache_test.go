package engine

import (
	"fmt"
	"testing"
	"time"

	"entangle/internal/ir"
	"entangle/internal/memdb"
	"entangle/internal/workload"
)

// TestCachedFreshPlanEquivalence is the acceptance contract of the plan
// cache: for every seeded workload, in both engine modes, an engine serving
// repeat shapes from the cache (the default) must deliver exactly the same
// per-query outcome — answered tuples included — as one compiling every
// component afresh (PlanCacheSize < 0). The fixed non-zero Seed makes the
// comparison cover the CHOOSE draw traces: tuples only coincide if the
// cached plan replays the identical join order and random draws the fresh
// compile would have produced.
func TestCachedFreshPlanEquivalence(t *testing.T) {
	g := workload.NewGraph(workload.Config{N: 600, AvgDeg: 8, Seed: 21, Airports: 30})
	db := memdb.New()
	if err := workload.PopulateDB(db, g); err != nil {
		t.Fatal(err)
	}

	type wl struct {
		name string
		gen  func() []*ir.Query
	}
	mk := func(seed int64, distinct bool, build func(gen *workload.Gen) []*ir.Query) func() []*ir.Query {
		return func() []*ir.Query {
			gen := workload.NewGen(g, seed)
			gen.DistinctRels = distinct
			return build(gen)
		}
	}
	workloads := []wl{
		{"two-way best, shared R", mk(31, false, func(gen *workload.Gen) []*ir.Query {
			return gen.Interleave(gen.TwoWayBest(g.FriendPairs(60, 31)))
		})},
		{"two-way best, distinct rels", mk(33, true, func(gen *workload.Gen) []*ir.Query {
			return gen.Interleave(gen.TwoWayBest(g.FriendPairs(60, 33)))
		})},
		{"two-way random, shared R", mk(35, false, func(gen *workload.Gen) []*ir.Query {
			return gen.PermuteGroups(gen.TwoWayRandom(g.FriendPairs(40, 35)), 2)
		})},
		{"three-way cycles, distinct rels", mk(37, true, func(gen *workload.Gen) []*ir.Query {
			return gen.Interleave(gen.ThreeWay(g.Triangles(20, 37)))
		})},
		{"cliques k=4, distinct rels", mk(39, true, func(gen *workload.Gen) []*ir.Query {
			return gen.Clique(g.Cliques(8, 4, 39))
		})},
		{"no-match loners", mk(41, false, func(gen *workload.Gen) []*ir.Query {
			return gen.NoMatch(80)
		})},
		{"chains", mk(43, false, func(gen *workload.Gen) []*ir.Query {
			return gen.Chains(60, 8)
		})},
		{"unsafe batch over residents", mk(45, false, func(gen *workload.Gen) []*ir.Query {
			qs := gen.ResidentNoCoordination(60, 12)
			return append(qs, gen.UnsafeBatch(20, 12)...)
		})},
	}

	for _, mode := range []Mode{SetAtATime, Incremental} {
		for _, w := range workloads {
			t.Run(fmt.Sprintf("%s/%s", mode, w.name), func(t *testing.T) {
				qs := w.gen()
				cached := runWorkload(t, db, Config{Mode: mode, Shards: 1, Seed: 12345}, qs, 0)
				fresh := runWorkload(t, db, Config{Mode: mode, Shards: 1, Seed: 12345,
					PlanCacheSize: -1}, qs, 0)
				if len(cached) != len(fresh) {
					t.Fatalf("outcome counts differ: %d vs %d", len(cached), len(fresh))
				}
				answered := 0
				for id, want := range cached {
					if got := fresh[id]; got != want {
						t.Fatalf("query %d: cached %q, fresh %q", id, want, got)
					}
					if len(want) > 8 && want[:8] == "answered" {
						answered++
					}
				}
				if w.name == "two-way best, shared R" || w.name == "two-way best, distinct rels" ||
					w.name == "cliques k=4, distinct rels" {
					if answered == 0 {
						t.Fatal("no answered outcomes; tuple equivalence is vacuous")
					}
				}
			})
		}
	}
}

// planCacheHarness builds a small friendship database where a stream of
// same-shape coordinating pairs can be submitted on demand.
type planCacheHarness struct {
	db *memdb.DB
	e  *Engine
	n  int
}

func newPlanCacheHarness(t *testing.T, cfg Config) *planCacheHarness {
	t.Helper()
	db := memdb.New()
	db.MustCreateTable("F", "u1", "u2")
	db.MustCreateTable("U", "u", "city")
	for i := 0; i < 64; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		db.MustInsert("F", a, b)
		db.MustInsert("U", a, "paris")
		db.MustInsert("U", b, "paris")
	}
	e := New(db, cfg)
	t.Cleanup(e.Close)
	return &planCacheHarness{db: db, e: e}
}

// submitPair submits one coordinating pair over a fresh ANSWER relation and
// waits for both answers. Every pair has the same combined-query shape —
// distinct ANSWER relations never enter the compiled body — so all pairs
// after the first must be plan-cache hits.
func (h *planCacheHarness) submitPair(t *testing.T) {
	t.Helper()
	h.n++
	rel := fmt.Sprintf("R%d", h.n)
	a, b := fmt.Sprintf("a%d", h.n%64), fmt.Sprintf("b%d", h.n%64)
	mk := func(me, partner string) *ir.Query {
		return &ir.Query{
			Choose: 1,
			Heads:  []ir.Atom{ir.NewAtom(rel, ir.Const(me), ir.Const("nyc"))},
			Posts:  []ir.Atom{ir.NewAtom(rel, ir.Const(partner), ir.Const("nyc"))},
			Body: []ir.Atom{
				ir.NewAtom("F", ir.Const(a), ir.Const(b)),
				ir.NewAtom("U", ir.Const(me), ir.Var("c")),
				ir.NewAtom("U", ir.Const(partner), ir.Var("c")),
			},
		}
	}
	h1, err := h.e.Submit(mk(a, b))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := h.e.Submit(mk(b, a))
	if err != nil {
		t.Fatal(err)
	}
	for _, hd := range []*Handle{h1, h2} {
		r, err := hd.Wait(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != StatusAnswered {
			t.Fatalf("pair %d: %s (%s)", h.n, r.Status, r.Detail)
		}
	}
}

// TestPlanCacheHitsOnRepeatShapes pins the tentpole's perf contract: after
// the first closing arrival compiles a shape, every repeat of that shape is
// answered without any CompilePlan work — PlanMisses stays flat while
// PlanHits climbs.
func TestPlanCacheHitsOnRepeatShapes(t *testing.T) {
	h := newPlanCacheHarness(t, Config{Mode: Incremental, Shards: 1})
	h.submitPair(t)
	st := h.e.Stats()
	if st.PlanMisses == 0 {
		t.Fatal("first pair must compile at least one plan")
	}
	baseline := st.PlanMisses

	const repeats = 20
	for i := 0; i < repeats; i++ {
		h.submitPair(t)
	}
	st = h.e.Stats()
	if st.PlanMisses != baseline {
		t.Fatalf("PlanMisses grew from %d to %d across %d repeat-shape pairs; repeats must be cache hits",
			baseline, st.PlanMisses, repeats)
	}
	if st.PlanHits < repeats {
		t.Fatalf("PlanHits = %d, want >= %d", st.PlanHits, repeats)
	}
	if st.PlanEvictions != 0 {
		t.Fatalf("PlanEvictions = %d, want 0 under capacity", st.PlanEvictions)
	}
}

// TestPlanCacheDisabled: a negative PlanCacheSize must compile every
// component afresh and report zero cache traffic.
func TestPlanCacheDisabled(t *testing.T) {
	h := newPlanCacheHarness(t, Config{Mode: Incremental, Shards: 1, PlanCacheSize: -1})
	for i := 0; i < 3; i++ {
		h.submitPair(t)
	}
	st := h.e.Stats()
	if st.PlanHits != 0 || st.PlanMisses != 0 || st.PlanEvictions != 0 {
		t.Fatalf("disabled cache reported traffic: %d/%d/%d", st.PlanHits, st.PlanMisses, st.PlanEvictions)
	}
}

// TestPlanCacheDDLInvalidation: Create/Drop bump the stats epoch, which is
// part of every shape key, so the next arrival of a cached shape recompiles
// against the new schema instead of reusing a stale plan.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	h := newPlanCacheHarness(t, Config{Mode: Incremental, Shards: 1})
	h.submitPair(t)
	h.submitPair(t)
	before := h.e.Stats().PlanMisses

	h.db.MustCreateTable("Unrelated", "a")
	h.submitPair(t)
	afterCreate := h.e.Stats().PlanMisses
	if afterCreate <= before {
		t.Fatalf("PlanMisses %d -> %d: CreateTable must invalidate cached shapes", before, afterCreate)
	}

	h.submitPair(t) // same epoch again: back to hits
	if got := h.e.Stats().PlanMisses; got != afterCreate {
		t.Fatalf("PlanMisses %d -> %d: repeat after recompile must hit", afterCreate, got)
	}

	if err := h.db.DropTable("Unrelated"); err != nil {
		t.Fatal(err)
	}
	h.submitPair(t)
	if got := h.e.Stats().PlanMisses; got <= afterCreate {
		t.Fatalf("PlanMisses %d -> %d: DropTable must invalidate cached shapes", afterCreate, got)
	}
}

// TestPlanCacheSizeDriftInvalidation: growing a body table past the drift
// band (2n+16) bumps the stats epoch, so join orders are re-derived from
// the new cardinalities; small growth within the band must NOT invalidate.
func TestPlanCacheSizeDriftInvalidation(t *testing.T) {
	h := newPlanCacheHarness(t, Config{Mode: Incremental, Shards: 1})
	h.submitPair(t)
	h.submitPair(t)
	before := h.e.Stats().PlanMisses

	// One extra row: far inside the band, must stay a hit.
	h.db.MustInsert("U", "lurker", "rome")
	h.submitPair(t)
	if got := h.e.Stats().PlanMisses; got != before {
		t.Fatalf("PlanMisses %d -> %d: in-band growth must not invalidate", before, got)
	}

	// Triple the table: past 2n+16, must recompile once.
	for i := 0; i < 300; i++ {
		h.db.MustInsert("U", fmt.Sprintf("extra%d", i), "rome")
	}
	h.submitPair(t)
	if got := h.e.Stats().PlanMisses; got <= before {
		t.Fatalf("PlanMisses %d -> %d: past-band growth must invalidate", before, got)
	}
}
