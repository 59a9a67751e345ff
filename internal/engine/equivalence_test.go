package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"entangle/internal/ir"
	"entangle/internal/memdb"
	"entangle/internal/workload"
)

// outcomeKey is a query's terminal observation: its status plus, when
// answered, the sorted ground answer tuples. Rejection details are
// deliberately excluded — the cause string may legitimately differ by
// evaluation order — but the terminal status and the delivered tuples must
// not.
func outcomeKey(r Result) string {
	if r.Status != StatusAnswered {
		return r.Status.String()
	}
	tuples := make([]string, len(r.Answer.Tuples))
	for i, tpl := range r.Answer.Tuples {
		tuples[i] = tpl.String()
	}
	sort.Strings(tuples)
	return "answered " + strings.Join(tuples, " ∧ ")
}

// runWorkload submits qs in order on a fresh engine over db, flushes, and
// returns the outcome per engine-assigned query ID ("pending" for queries
// still waiting after the final flush). batch 0 submits one query at a time
// through Submit; batch > 0 submits consecutive chunks of that many queries
// through SubmitBatch. Either way IDs are assigned in input order, so runs
// that differ only in batch size are comparable per ID.
func runWorkload(t *testing.T, db *memdb.DB, cfg Config, qs []*ir.Query, batch int) map[ir.QueryID]string {
	t.Helper()
	e := New(db, cfg)
	defer e.Close()
	handles := make([]*Handle, 0, len(qs))
	for len(qs) > 0 {
		if batch == 0 {
			h, err := e.Submit(qs[0])
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
			qs = qs[1:]
			continue
		}
		n := min(batch, len(qs))
		hs, err := e.SubmitBatch(qs[:n])
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, hs...)
		qs = qs[n:]
	}
	e.Flush()
	out := make(map[ir.QueryID]string, len(handles))
	for _, h := range handles {
		select {
		case r := <-h.Done():
			out[h.ID] = outcomeKey(r)
		default:
			out[h.ID] = "pending"
		}
	}
	return out
}

// TestShardedSingleShardEquivalence submits identical seeded workloads to a
// single-shard engine and an 8-shard engine and requires identical outcome
// multisets (in fact identical per-ID outcomes: sequential submission gives
// both engines the same ID assignment) after the final flush. This is the
// paper's correctness argument for partition-local processing (Section
// 4.1.2) carried over to shards: routing keeps every unifiability component
// on one shard, so sharding must be observationally invisible.
//
// Each case also pins batch ≡ sequential per query: for 1 and 8 shards,
// CHOOSE seeds 0 and 7, and (set-at-a-time) with and without a FlushEvery
// backlog bound, submitting the workload through SubmitBatch in chunks of
// 1, 7 and the whole list must give every query the outcome it gets when
// submitted alone.
func TestShardedSingleShardEquivalence(t *testing.T) {
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
				single := runWorkload(t, db, Config{Mode: mode, Shards: 1}, qs, 0)
				sharded := runWorkload(t, db, Config{Mode: mode, Shards: 8}, qs, 0)
				if len(single) != len(sharded) {
					t.Fatalf("outcome counts differ: %d vs %d", len(single), len(sharded))
				}
				for id, want := range single {
					if got := sharded[id]; got != want {
						t.Fatalf("query %d: single-shard %q, sharded %q", id, want, got)
					}
				}
				// Sanity: the comparison is not vacuous — something resolved.
				resolved := 0
				for _, v := range single {
					if v != "pending" {
						resolved++
					}
				}
				if strings.Contains(w.name, "best") || strings.Contains(w.name, "cliques") {
					if resolved == 0 {
						t.Fatal("workload never resolved anything; equivalence is vacuous")
					}
				}

				flushEvery := []int{0}
				if mode == SetAtATime {
					flushEvery = append(flushEvery, 5)
				}
				for _, fe := range flushEvery {
					for _, shards := range []int{1, 8} {
						for _, seed := range []int64{0, 7} {
							cfg := Config{Mode: mode, Shards: shards, Seed: seed, FlushEvery: fe}
							seq := runWorkload(t, db, cfg, qs, 0)
							for _, chunk := range []int{1, 7, len(qs)} {
								batched := runWorkload(t, db, cfg, qs, chunk)
								for id, want := range seq {
									if got := batched[id]; got != want {
										t.Fatalf("flushEvery=%d shards=%d seed=%d chunk=%d: query %d: sequential %q, batched %q",
											fe, shards, seed, chunk, id, want, got)
									}
								}
							}
						}
					}
				}
			})
		}
	}
}
