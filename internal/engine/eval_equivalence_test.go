package engine

import (
	"fmt"
	"testing"

	"entangle/internal/ir"
	"entangle/internal/match"
	"entangle/internal/memdb"
	"entangle/internal/workload"
)

// TestCompiledLegacyEvaluatorEquivalence is the acceptance contract of the
// compiled evaluation plans: for every seeded workload, in both engine
// modes, an engine evaluating through compiled plans (the default) must
// deliver exactly the same per-query outcome — answered tuples included —
// as one routed through the retained map-backed evaluator
// (match.Options.LegacyEval). A non-zero Seed makes the comparison cover
// the fixed-seed CHOOSE draws too: the answered tuples only coincide if
// both evaluators consume their identical per-component random streams at
// identical points of identical join orders.
func TestCompiledLegacyEvaluatorEquivalence(t *testing.T) {
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
				compiled := runWorkload(t, db, Config{Mode: mode, Shards: 1, Seed: 12345}, qs, 0)
				legacy := runWorkload(t, db, Config{Mode: mode, Shards: 1, Seed: 12345,
					Match: match.Options{LegacyEval: true}}, qs, 0)
				if len(compiled) != len(legacy) {
					t.Fatalf("outcome counts differ: %d vs %d", len(compiled), len(legacy))
				}
				answered := 0
				for id, want := range compiled {
					if got := legacy[id]; got != want {
						t.Fatalf("query %d: compiled %q, legacy %q", id, want, got)
					}
					if len(want) > 8 && want[:8] == "answered" {
						answered++
					}
				}
				// The comparison must not be vacuous on workloads built to
				// coordinate: some answers (with tuples) must have compared.
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
