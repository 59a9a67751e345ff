package engine

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"entangle/internal/ir"
)

// TestSubmitBatchAmortisation is the acceptance check for the batch fast
// path: a whole batch takes exactly one router pass and at most one shard
// lock acquisition per touched shard, while the same workload submitted one
// query at a time pays one of each per query.
func TestSubmitBatchAmortisation(t *testing.T) {
	const shards, pairs = 4, 50
	mkQueries := func() []*ir.Query {
		var qs []*ir.Query
		for p := 0; p < pairs; p++ {
			rel := fmt.Sprintf("Rel%d", p)
			qs = append(qs,
				ir.MustParse(0, fmt.Sprintf("{%s(B, x)} %s(A, x) :- F(x, Paris)", rel, rel)),
				ir.MustParse(0, fmt.Sprintf("{%s(A, y)} %s(B, y) :- F(y, Paris)", rel, rel)))
		}
		return qs
	}

	batched := New(flightsDB(t), Config{Mode: Incremental, Shards: shards})
	defer batched.Close()
	handles, err := batched.SubmitBatch(mkQueries())
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 2*pairs {
		t.Fatalf("%d handles", len(handles))
	}
	for i, h := range handles {
		if r := mustResult(t, h); r.Status != StatusAnswered {
			t.Fatalf("batch member %d: %v (%s)", i, r.Status, r.Detail)
		}
	}
	st := batched.Stats()
	if st.RouterPasses != 1 {
		t.Fatalf("batch took %d router passes, want 1", st.RouterPasses)
	}
	if st.SubmitLocks > shards {
		t.Fatalf("batch took %d submit lock acquisitions for %d shards", st.SubmitLocks, shards)
	}
	touched := 0
	for _, sh := range st.PerShard {
		if sh.Submitted > 0 {
			touched++
		}
	}
	if st.SubmitLocks != touched {
		t.Fatalf("batch locked %d shards but touched %d", st.SubmitLocks, touched)
	}

	single := New(flightsDB(t), Config{Mode: Incremental, Shards: shards})
	defer single.Close()
	var singleHandles []*Handle
	for _, q := range mkQueries() {
		h, err := single.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		singleHandles = append(singleHandles, h)
	}
	for _, h := range singleHandles {
		if r := mustResult(t, h); r.Status != StatusAnswered {
			t.Fatalf("single: %v", r.Status)
		}
	}
	sst := single.Stats()
	if sst.RouterPasses != 2*pairs || sst.SubmitLocks != 2*pairs {
		t.Fatalf("singles: %d passes / %d locks for %d queries", sst.RouterPasses, sst.SubmitLocks, 2*pairs)
	}
	if sst.Answered != st.Answered {
		t.Fatalf("answered differ: batch %d vs single %d", st.Answered, sst.Answered)
	}
}

// TestSubmitBatchAssignsIDsInOrder pins the ID/handle contract: handles come
// back in input order with ascending engine-assigned IDs, so callers can
// correlate batch members with their submissions.
func TestSubmitBatchAssignsIDsInOrder(t *testing.T) {
	e := New(flightsDB(t), Config{Mode: SetAtATime, Shards: 4})
	defer e.Close()
	var qs []*ir.Query
	for i := 0; i < 10; i++ {
		qs = append(qs, ir.MustParse(0, fmt.Sprintf("{X%d(B, x)} X%d(A, x) :- F(x, Paris)", i, i)))
	}
	handles, err := e.SubmitBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(handles); i++ {
		if handles[i].ID <= handles[i-1].ID {
			t.Fatalf("IDs not ascending: %v then %v", handles[i-1].ID, handles[i].ID)
		}
	}
}

// TestSubmitBatchMergesFamilies submits a batch whose last query bridges
// relation families that already hold pending members on different shards;
// the batch's own router pass must trigger the migration and the merged
// component must still coordinate.
func TestSubmitBatchMergesFamilies(t *testing.T) {
	e := New(flightsDB(t), Config{Mode: Incremental, Shards: 8})
	defer e.Close()
	// Two pending loners on (very likely) different shards.
	h1, err := e.Submit(ir.MustParse(0, "{Right(K, x)} Left(J, x) :- F(x, Paris)"))
	if err != nil {
		t.Fatal(err)
	}
	// The batch: a partner for the Left head plus an unrelated pair. The
	// bridge query's signature {Left, Right} merges both families.
	handles, err := e.SubmitBatch([]*ir.Query{
		ir.MustParse(0, "{Left(J, y)} Right(K, y) :- F(y, Paris)"),
		ir.MustParse(0, "{Other(B, z)} Other(A, z) :- F(z, Paris)"),
		ir.MustParse(0, "{Other(A, w)} Other(B, w) :- F(w, Paris)"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := mustResult(t, h1); r.Status != StatusAnswered {
		t.Fatalf("bridged loner: %v (%s)", r.Status, r.Detail)
	}
	for i, h := range handles {
		if r := mustResult(t, h); r.Status != StatusAnswered {
			t.Fatalf("batch member %d: %v (%s)", i, r.Status, r.Detail)
		}
	}
}

// TestSubmitBatchValidation: an invalid query fails the whole engine-level
// batch before anything is admitted (per-query recovery is the server
// protocol's job).
func TestSubmitBatchValidation(t *testing.T) {
	e := New(flightsDB(t), Config{Shards: 2})
	defer e.Close()
	bad := &ir.Query{} // no heads
	if _, err := e.SubmitBatch([]*ir.Query{ir.MustParse(0, "{R(B, x)} R(A, x) :- F(x, Paris)"), bad}); err == nil {
		t.Fatal("invalid batch member must fail the batch")
	}
	if st := e.Stats(); st.Submitted != 0 {
		t.Fatalf("failed batch admitted queries: %+v", st)
	}
}

// TestSubmitBatchRoundsRunOutOfLock: a batch member's coordination round
// evaluates with the shard lock released, exactly like Submit's. The round
// the closing member triggers is parked in the evaluation hook, and a
// concurrent Submit to the same (only) shard must complete meanwhile. The
// set-at-a-time case parks a FlushEvery-triggered round instead. Only the
// batch's one admission lock is counted: the settle re-acquisitions are not.
func TestSubmitBatchRoundsRunOutOfLock(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: Incremental, Shards: 1},
		{Mode: SetAtATime, Shards: 1, FlushEvery: 2},
	} {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			e := New(flightsDB(t), cfg)
			defer e.Close()
			entered, release := blockFirstEval(e)

			type batchResult struct {
				hs  []*Handle
				err error
			}
			batchDone := make(chan batchResult, 1)
			go func() {
				hs, err := e.SubmitBatch([]*ir.Query{
					ir.MustParse(0, "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"),
					ir.MustParse(0, "{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)"),
					ir.MustParse(0, "{R(Nobody, z)} R(Elaine, z) :- F(z, Rome)"),
				})
				batchDone <- batchResult{hs, err}
			}()
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the batch's closing member never reached out-of-lock evaluation")
			}

			submitted := make(chan error, 1)
			go func() {
				_, err := e.Submit(ir.MustParse(0, "{R(Nobody, w)} R(George, w) :- F(w, Rome)"))
				submitted <- err
			}()
			select {
			case err := <-submitted:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Submit blocked behind a batch member's round: shard lock held during eval")
			}
			close(release)

			br := <-batchDone
			if br.err != nil {
				t.Fatal(br.err)
			}
			for _, h := range br.hs[:2] {
				if r := mustResult(t, h); r.Status != StatusAnswered {
					t.Fatalf("query %d: %v (%s)", h.ID, r.Status, r.Detail)
				}
			}
			select {
			case r := <-br.hs[2].Done():
				t.Fatalf("loner resolved prematurely: %v", r)
			default:
			}
			if st := e.Stats(); st.SubmitLocks != 2 || st.RouterPasses != 2 {
				t.Fatalf("batch + single took %d submit locks / %d router passes, want 2 / 2", st.SubmitLocks, st.RouterPasses)
			}
		})
	}
}

// TestSubmitBatchRemainderReroutes: while a batch member's round evaluates
// out of lock, the evaluation hook submits a bridging query that merges the
// family of the batch's LATER members onto another shard. When the batch
// re-locks its shard the routing generation has moved, so the unadmitted
// remainder must go back through the router and land on the new home —
// and every handle still receives exactly one Result.
func TestSubmitBatchRemainderReroutes(t *testing.T) {
	const shards = 8
	home := func(rel string) int { return int(relHash(rel) % shards) }
	// P and X share a home shard, so one batch group holds both pairs; Y
	// hashes below X onto a different shard, so merging {X, Y} re-homes X.
	var p, x, y string
search:
	for i := 0; i < 200; i++ {
		for j := 0; j < 200; j++ {
			for k := 0; k < 200; k++ {
				p, x, y = fmt.Sprintf("P%d", i), fmt.Sprintf("X%d", j), fmt.Sprintf("Y%d", k)
				if home(p) == home(x) && relHash(y) < relHash(x) && home(y) != home(x) {
					break search
				}
			}
		}
	}
	if home(p) != home(x) || relHash(y) >= relHash(x) || home(y) == home(x) {
		t.Fatal("no relation triple with the required homes")
	}

	e := New(flightsDB(t), Config{Mode: Incremental, Shards: shards})
	defer e.Close()
	var bridge *Handle
	var fired atomic.Bool
	e.testEvalHook = func([]ir.QueryID) {
		if !fired.CompareAndSwap(false, true) {
			return
		}
		// Runs on the batch's goroutine, between the P pair's admission and
		// the X pair's. Its head X(Z, ·) and post Y(K, ·) unify with
		// nothing, so the bridge only merges the families.
		var err error
		if bridge, err = e.Submit(ir.MustParse(0, fmt.Sprintf("{%s(K, w)} %s(Z, w) :- F(w, Rome)", y, x))); err != nil {
			t.Error(err)
		}
	}
	hs, err := e.SubmitBatch([]*ir.Query{
		ir.MustParse(0, fmt.Sprintf("{%s(B, x)} %s(A, x) :- F(x, Paris)", p, p)),
		ir.MustParse(0, fmt.Sprintf("{%s(A, y)} %s(B, y) :- F(y, Paris)", p, p)),
		ir.MustParse(0, fmt.Sprintf("{%s(B, u)} %s(A, u) :- F(u, Paris)", x, x)),
		ir.MustParse(0, fmt.Sprintf("{%s(A, v)} %s(B, v) :- F(v, Paris)", x, x)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if bridge == nil {
		t.Fatal("the batch's round never reached the evaluation hook")
	}
	for i, h := range hs {
		if r := mustResult(t, h); r.Status != StatusAnswered {
			t.Fatalf("batch member %d: %v (%s)", i, r.Status, r.Detail)
		}
	}
	// Every delivery ran synchronously inside SubmitBatch, and a handle's
	// buffer holds one Result, so a double delivery would have hung the
	// batch. The bridge waits for partners that never come.
	select {
	case r := <-bridge.Done():
		t.Fatalf("bridge resolved: %v", r)
	default:
	}
	st := e.Stats()
	if st.RouterPasses != 3 {
		t.Fatalf("%d router passes, want 3 (batch, bridge, batch remainder)", st.RouterPasses)
	}
	if got := st.PerShard[home(y)].Answered; got != 2 {
		t.Fatalf("re-homed shard %d answered %d, want the X pair", home(y), got)
	}
	if got := st.PerShard[home(p)].Answered; got != 2 {
		t.Fatalf("original shard %d answered %d, want the P pair", home(p), got)
	}
	if st.Submitted != 5 || st.Answered != 4 || st.Pending != 1 {
		t.Fatalf("submitted %d, answered %d, pending %d; want 5, 4 and the bridge", st.Submitted, st.Answered, st.Pending)
	}
}
