package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"entangle/internal/ir"
	"entangle/internal/memdb"
	"entangle/internal/workload"
)

// TestSubmitBulkAmortisation: a bulk load takes one router pass and one
// shard lock per touched shard (as the batch path), runs one bulk flush per
// touched shard, and — although nothing evaluated during ingest — delivers
// every coordinated answer before the call returns.
func TestSubmitBulkAmortisation(t *testing.T) {
	const shards, pairs = 4, 50
	var qs []*ir.Query
	for p := 0; p < pairs; p++ {
		rel := fmt.Sprintf("Rel%d", p)
		qs = append(qs,
			ir.MustParse(0, fmt.Sprintf("{%s(B, x)} %s(A, x) :- F(x, Paris)", rel, rel)),
			ir.MustParse(0, fmt.Sprintf("{%s(A, y)} %s(B, y) :- F(y, Paris)", rel, rel)))
	}
	e := New(flightsDB(t), Config{Mode: Incremental, Shards: shards})
	defer e.Close()
	handles, err := e.SubmitBulk(qs, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 2*pairs {
		t.Fatalf("%d handles", len(handles))
	}
	for i, h := range handles {
		if r := mustResult(t, h); r.Status != StatusAnswered {
			t.Fatalf("bulk member %d: %v (%s)", i, r.Status, r.Detail)
		}
	}
	st := e.Stats()
	if st.RouterPasses != 1 {
		t.Fatalf("bulk took %d router passes, want 1", st.RouterPasses)
	}
	touched := 0
	for _, sh := range st.PerShard {
		if sh.Submitted > 0 {
			touched++
		}
	}
	if st.SubmitLocks != touched {
		t.Fatalf("bulk locked %d shards but touched %d", st.SubmitLocks, touched)
	}
	if st.BulkLoads != 1 || st.BulkFlushes != touched {
		t.Fatalf("BulkLoads=%d BulkFlushes=%d, want 1/%d", st.BulkLoads, st.BulkFlushes, touched)
	}
}

// TestSubmitBulkDeferFlush: a deferred bulk ingests without coordinating —
// everything stays pending — and the next Flush answers the closed pairs,
// in either mode (an Incremental engine evaluates nothing at ingest either).
func TestSubmitBulkDeferFlush(t *testing.T) {
	for _, mode := range []Mode{SetAtATime, Incremental} {
		e := New(flightsDB(t), Config{Mode: mode, Shards: 2})
		handles, err := e.SubmitBulk([]*ir.Query{
			ir.MustParse(0, "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"),
			ir.MustParse(0, "{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)"),
		}, BulkOptions{DeferFlush: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.Pending != 2 || st.BulkFlushes != 0 {
			t.Fatalf("%v: after deferred bulk: %+v", mode, st)
		}
		e.Flush()
		for i, h := range handles {
			if r := mustResult(t, h); r.Status != StatusAnswered {
				t.Fatalf("%v: member %d: %v (%s)", mode, i, r.Status, r.Detail)
			}
		}
		e.Close()
	}
}

// TestSubmitBulkUnsafeRejected: the single safety sweep over the ingested
// set rejects exactly the queries per-query admission would have — here a
// newcomer whose postcondition unifies with two bulk heads — and withdraws
// their atoms, so the surviving pair still coordinates.
func TestSubmitBulkUnsafeRejected(t *testing.T) {
	e := New(flightsDB(t), Config{Mode: Incremental, Shards: 1})
	defer e.Close()
	handles, err := e.SubmitBulk([]*ir.Query{
		ir.MustParse(0, "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"),
		ir.MustParse(0, "{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)"),
		// Unsafe: its postcondition R(z, Paris)… unifies with both heads.
		ir.MustParse(0, "{R(Elaine, 122)} R(z, w) :- F(z, w)"),
	}, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r := mustResult(t, handles[2]); r.Status != StatusUnsafe {
		t.Fatalf("unsafe member: %v (%s)", r.Status, r.Detail)
	}
	for i := 0; i < 2; i++ {
		if r := mustResult(t, handles[i]); r.Status != StatusAnswered {
			t.Fatalf("member %d: %v (%s)", i, r.Status, r.Detail)
		}
	}
	if st := e.Stats(); st.RejectedUnsafe != 1 || st.Answered != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSubmitBulkStaleness: queries left open after the bulk flush honor the
// staleness deadline, measured from the SubmitBulk call.
func TestSubmitBulkStaleness(t *testing.T) {
	e := New(flightsDB(t), Config{Mode: Incremental, StaleAfter: time.Millisecond, Shards: 2})
	defer e.Close()
	handles, err := e.SubmitBulk([]*ir.Query{
		ir.MustParse(0, "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"),
		ir.MustParse(0, "{S(Elaine, y)} S(George, y) :- F(y, Rome)"),
	}, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if n := e.ExpireStale(); n != 2 {
		t.Fatalf("expired %d, want 2", n)
	}
	for i, h := range handles {
		if r := mustResult(t, h); r.Status != StatusStale {
			t.Fatalf("member %d: %v", i, r.Status)
		}
	}
}

// bulkOutcomeRef is the reference semantics SubmitBulk promises: the same
// queries through SubmitBatch on a set-at-a-time engine, drained by one
// Flush.
func bulkOutcomeRef(t *testing.T, db *memdb.DB, shards int, qs []*ir.Query) map[ir.QueryID]string {
	t.Helper()
	e := New(db, Config{Mode: SetAtATime, Shards: shards})
	defer e.Close()
	handles, err := e.SubmitBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	e.Flush()
	return collectOutcomes(handles)
}

func collectOutcomes(handles []*Handle) map[ir.QueryID]string {
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

// bulkWorkloads builds the same 8 seeded workloads the sharding-equivalence
// test uses (pairs, triangles, cliques, loners, chains, unsafe batches —
// shared and distinct ANSWER relations). orderFree marks the workloads
// whose coordinating groups are unifiability-disjoint, where outcomes are
// provably independent of arrival order.
func bulkWorkloads(g *workload.Graph) []struct {
	name      string
	orderFree bool
	gen       func() []*ir.Query
} {
	mk := func(seed int64, distinct bool, build func(gen *workload.Gen) []*ir.Query) func() []*ir.Query {
		return func() []*ir.Query {
			gen := workload.NewGen(g, seed)
			gen.DistinctRels = distinct
			return build(gen)
		}
	}
	return []struct {
		name      string
		orderFree bool
		gen       func() []*ir.Query
	}{
		{"two-way best, shared R", false, mk(31, false, func(gen *workload.Gen) []*ir.Query {
			return gen.Interleave(gen.TwoWayBest(g.FriendPairs(60, 31)))
		})},
		{"two-way best, distinct rels", true, mk(33, true, func(gen *workload.Gen) []*ir.Query {
			return gen.Interleave(gen.TwoWayBest(g.FriendPairs(60, 33)))
		})},
		{"two-way random, shared R", false, mk(35, false, func(gen *workload.Gen) []*ir.Query {
			return gen.PermuteGroups(gen.TwoWayRandom(g.FriendPairs(40, 35)), 2)
		})},
		{"three-way cycles, distinct rels", true, mk(37, true, func(gen *workload.Gen) []*ir.Query {
			return gen.Interleave(gen.ThreeWay(g.Triangles(20, 37)))
		})},
		{"cliques k=4, distinct rels", true, mk(39, true, func(gen *workload.Gen) []*ir.Query {
			return gen.Clique(g.Cliques(8, 4, 39))
		})},
		{"no-match loners", true, mk(41, false, func(gen *workload.Gen) []*ir.Query {
			return gen.NoMatch(80)
		})},
		{"chains", false, mk(43, false, func(gen *workload.Gen) []*ir.Query {
			return gen.Chains(60, 8)
		})},
		{"unsafe batch over residents", false, mk(45, false, func(gen *workload.Gen) []*ir.Query {
			qs := gen.ResidentNoCoordination(60, 12)
			return append(qs, gen.UnsafeBatch(20, 12)...)
		})},
	}
}

// TestSubmitBulkEquivalence is the bulk path's correctness contract over
// the 8 seeded workloads: with no interleaved singles, the answered set and
// per-query results of SubmitBulk equal SubmitBatch-then-Flush on a
// set-at-a-time engine — per engine-assigned ID, across all three
// submission modes (one-at-a-time, batched, bulk), for 1 and 8 shards, on
// incremental and set-at-a-time engines, flushed eagerly or deferred.
func TestSubmitBulkEquivalence(t *testing.T) {
	g := workload.NewGraph(workload.Config{N: 600, AvgDeg: 8, Seed: 21, Airports: 30})
	db := memdb.New()
	if err := workload.PopulateDB(db, g); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 8} {
		for _, w := range bulkWorkloads(g) {
			t.Run(fmt.Sprintf("%dshard/%s", shards, w.name), func(t *testing.T) {
				qs := w.gen()
				want := bulkOutcomeRef(t, db, shards, qs)

				// Mode 1 of 3 — one-at-a-time singles on a set-at-a-time
				// engine (the pre-batch reference).
				singles := runWorkload(t, db, Config{Mode: SetAtATime, Shards: shards}, qs, 0)
				assertSameOutcomes(t, "singles", want, singles)

				// Mode 3 of 3 — bulk, across engine modes and flush styles.
				variants := []struct {
					name   string
					mode   Mode
					defer_ bool
				}{
					{"bulk/set-at-a-time", SetAtATime, false},
					{"bulk/incremental", Incremental, false},
					{"bulk/deferred", SetAtATime, true},
				}
				for _, v := range variants {
					e := New(db, Config{Mode: v.mode, Shards: shards})
					handles, err := e.SubmitBulk(qs, BulkOptions{DeferFlush: v.defer_})
					if err != nil {
						t.Fatal(err)
					}
					if v.defer_ {
						e.Flush()
					}
					got := collectOutcomes(handles)
					e.Close()
					assertSameOutcomes(t, v.name, want, got)
				}
			})
		}
	}
}

func assertSameOutcomes(t *testing.T, tag string, want, got map[ir.QueryID]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: outcome counts differ: want %d, got %d", tag, len(want), len(got))
	}
	for id, w := range want {
		if g := got[id]; g != w {
			t.Fatalf("%s: query %d: want %q, got %q", tag, id, w, g)
		}
	}
}

// TestSubmitBulkOrderInsensitive: on workloads whose coordinating groups
// are unifiability-disjoint, a permuted bulk delivers the same multiset of
// (owner, outcome) observations — the set-at-a-time semantics the bulk path
// promises has nothing left that depends on arrival order.
func TestSubmitBulkOrderInsensitive(t *testing.T) {
	g := workload.NewGraph(workload.Config{N: 600, AvgDeg: 8, Seed: 21, Airports: 30})
	db := memdb.New()
	if err := workload.PopulateDB(db, g); err != nil {
		t.Fatal(err)
	}
	for _, w := range bulkWorkloads(g) {
		if !w.orderFree {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			base := w.gen()
			run := func(qs []*ir.Query) []string {
				e := New(db, Config{Mode: SetAtATime, Shards: 8})
				defer e.Close()
				handles, err := e.SubmitBulk(qs, BulkOptions{})
				if err != nil {
					t.Fatal(err)
				}
				obs := make([]string, 0, len(handles))
				for i, h := range handles {
					select {
					case r := <-h.Done():
						obs = append(obs, qs[i].Owner+" → "+outcomeKey(r))
					default:
						obs = append(obs, qs[i].Owner+" → pending")
					}
				}
				sort.Strings(obs)
				return obs
			}
			want := run(base)
			for _, seed := range []int64{5, 17} {
				perm := workload.NewGen(g, seed).Interleave(base)
				got := run(perm)
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d observations, want %d", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: observation %d differs: want %q, got %q", seed, i, want[i], got[i])
					}
				}
			}
		})
	}
}

// TestSubmitBulkConcurrent hammers SubmitBulk from several goroutines
// (disjoint relation families per submitter) interleaved with singles,
// flushes and stats reads; every handle must deliver exactly one Result.
// Run with -race in CI.
func TestSubmitBulkConcurrent(t *testing.T) {
	e := New(flightsDB(t), Config{Mode: SetAtATime, Shards: 4, FlushEvery: 16})
	defer e.Close()
	const workers, waves, pairsPerWave = 4, 6, 8
	var wg sync.WaitGroup
	results := make(chan Result, workers*waves*pairsPerWave*2+workers*waves)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 0; v < waves; v++ {
				var qs []*ir.Query
				for p := 0; p < pairsPerWave; p++ {
					rel := fmt.Sprintf("W%dV%dP%d", w, v, p)
					qs = append(qs,
						ir.MustParse(0, fmt.Sprintf("{%s(B, x)} %s(A, x) :- F(x, Paris)", rel, rel)),
						ir.MustParse(0, fmt.Sprintf("{%s(A, y)} %s(B, y) :- F(y, Paris)", rel, rel)))
				}
				handles, err := e.SubmitBulk(qs, BulkOptions{DeferFlush: v%2 == 0})
				if err != nil {
					t.Error(err)
					return
				}
				single, err := e.Submit(ir.MustParse(0, fmt.Sprintf("{LoneW%dV%d(A, z)} LoneW%dV%d(B, z) :- F(z, Oslo)", w, v, w, v)))
				if err != nil {
					t.Error(err)
					return
				}
				e.Flush()
				e.Stats()
				for _, h := range handles {
					results <- <-h.Done()
				}
				go func() { results <- <-single.Done() }()
			}
		}(w)
	}
	wg.Wait()
	e.Close() // resolves the lone singles as stale
	answered := 0
	for i := 0; i < workers*waves*(pairsPerWave*2+1); i++ {
		r := <-results
		if r.Status == StatusAnswered {
			answered++
		}
	}
	if want := workers * waves * pairsPerWave * 2; answered != want {
		t.Fatalf("answered %d, want %d", answered, want)
	}
	st := e.Stats()
	if st.BulkLoads != workers*waves {
		t.Fatalf("BulkLoads = %d, want %d", st.BulkLoads, workers*waves)
	}
}

// TestSubmitBulkUnsafeDetailMatchesBatch: unsafe-rejection Details must be
// byte-identical between the bulk sweep and per-query admission — including
// the own-multiplicity case, where a query's SECOND head gives a resident's
// postcondition its second feeder and the verdict must name that head, not
// the first edge discovered.
func TestSubmitBulkUnsafeDetailMatchesBatch(t *testing.T) {
	mk := func() []*ir.Query {
		resident := &ir.Query{
			Owner: "resident", Choose: 1,
			Heads: []ir.Atom{ir.NewAtom("R", ir.Const("B"), ir.Const("Paris"))},
			Posts: []ir.Atom{ir.NewAtom("R", ir.Const("A"), ir.Var("x"))},
			Body:  []ir.Atom{ir.NewAtom("F", ir.Var("x"), ir.Const("Paris"))},
		}
		offender := &ir.Query{
			Owner: "offender", Choose: 1,
			Heads: []ir.Atom{
				ir.NewAtom("R", ir.Const("A"), ir.Const("Paris")),
				ir.NewAtom("R", ir.Const("A"), ir.Const("Rome")),
			},
		}
		return []*ir.Query{resident, offender}
	}
	run := func(bulk bool) Result {
		e := New(flightsDB(t), Config{Mode: SetAtATime, Shards: 1})
		defer e.Close()
		var handles []*Handle
		var err error
		if bulk {
			handles, err = e.SubmitBulk(mk(), BulkOptions{})
		} else {
			handles, err = e.SubmitBatch(mk())
		}
		if err != nil {
			t.Fatal(err)
		}
		return mustResult(t, handles[1])
	}
	batch, bulk := run(false), run(true)
	if batch.Status != StatusUnsafe || bulk.Status != StatusUnsafe {
		t.Fatalf("statuses: batch %v, bulk %v", batch.Status, bulk.Status)
	}
	if batch.Detail != bulk.Detail {
		t.Fatalf("details diverge:\n  batch: %s\n  bulk:  %s", batch.Detail, bulk.Detail)
	}
	if !strings.Contains(batch.Detail, "R(A, Rome)") {
		t.Fatalf("verdict does not name the threshold-crossing head: %s", batch.Detail)
	}
}
