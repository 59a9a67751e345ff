package server

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"entangle/internal/engine"
	"entangle/internal/memdb"
)

// startDurableServer spins up a durable engine (data directory + WAL) and
// serves it, loading the flight schema through the logged DDL path.
func startDurableServer(t *testing.T, dir string) (*Server, string) {
	t.Helper()
	e, err := engine.Open(memdb.New(), engine.Config{
		Mode: engine.Incremental, Shards: 1, Seed: 0,
		DataDir: dir, Durability: engine.DurabilityBatch, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(e)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() {
		s.Shutdown()
		l.Close()
		e.Close()
	})
	return s, l.Addr().String()
}

// TestServerBulkChunked streams one logical bulk as many chunks: every
// chunk must ride the engine's bulk path with its flush deferred, and the
// load must coordinate as one round at the closing flush.
func TestServerBulkChunked(t *testing.T) {
	srv, addr := startServer(t, engine.Config{Mode: engine.SetAtATime, Shards: 2})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const pairs = 30
	queries := make([]BatchQuery, 0, 2*pairs+1)
	for i := 0; i < pairs; i++ {
		queries = append(queries,
			BatchQuery{IR: fmt.Sprintf("{R%d(J, x)} R%d(K, x) :- F(x, Rome)", i, i)},
			BatchQuery{IR: fmt.Sprintf("{R%d(K, y)} R%d(J, y) :- F(y, Rome)", i, i)},
		)
	}
	queries = append(queries, BatchQuery{IR: "not a query"}) // per-item error survives chunking
	handles, err := c.SubmitBulkChunked(queries, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != len(queries) {
		t.Fatalf("%d handles for %d queries", len(handles), len(queries))
	}
	if handles[len(handles)-1].Err == nil {
		t.Fatal("bad query must carry a per-item error")
	}
	for i, h := range handles[:2*pairs] {
		if h.Err != nil {
			t.Fatalf("chunk member %d refused: %v", i, h.Err)
		}
		if r := waitResult(t, h.Ch); r.Status != "answered" {
			t.Fatalf("chunk member %d: %s (%s)", i, r.Status, r.Detail)
		}
	}
	// ⌈61/7⌉ chunks, each one engine bulk load; the flushes all came from
	// the single closing flush, not per chunk.
	st := srv.Engine.Stats()
	if st.BulkLoads != 9 {
		t.Fatalf("BulkLoads = %d, want 9", st.BulkLoads)
	}
	if st.BulkFlushes != 0 {
		t.Fatalf("BulkFlushes = %d, want 0 (chunks must defer)", st.BulkFlushes)
	}
}

// TestServerCheckpointOp drives the checkpoint op against a durable and a
// non-durable engine.
func TestServerCheckpointOp(t *testing.T) {
	_, addr := startDurableServer(t, t.TempDir())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load("CREATE TABLE G (a, b);"); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint on durable server: %v", err)
	}

	_, addr2 := startServer(t, engine.Config{Mode: engine.Incremental})
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Checkpoint(); err == nil || !strings.Contains(err.Error(), "data directory") {
		t.Fatalf("checkpoint on non-durable server: %v", err)
	}
}

// TestServerDurableLoadSurvivesRestart: load goes through the engine's
// logged path, so a server restart over the same data directory sees the
// loaded tables.
func TestServerDurableLoadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startDurableServer(t, dir)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load("CREATE TABLE T (x, y);\nINSERT INTO T VALUES ('1', '2');"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Shutdown()
	srv.Engine.Close()

	e2, err := engine.Open(memdb.New(), engine.Config{
		Mode: engine.Incremental, Shards: 1,
		DataDir: dir, Durability: engine.DurabilityBatch, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	names := e2.DB().TableNames()
	found := false
	for _, n := range names {
		if n == "T" {
			found = true
		}
	}
	if !found {
		t.Fatalf("restarted engine lost loaded table: %v", names)
	}
}
