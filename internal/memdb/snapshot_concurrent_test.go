package memdb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotUnderConcurrentWriters races WriteSnapshot against inserts,
// deletes and table churn: every snapshot taken mid-churn must be
// internally consistent (loadable into a fresh database with matching
// arities), which is what the engine's checkpoint path relies on. Run with
// -race. The writers are unpaced, but each deletes its own rows older than
// a fixed window, so Base stays bounded however far they outrun the O(rows)
// snapshots. The race is made to happen on any scheduler: snapshotting
// starts only once every writer has landed a write, and continues past the
// nominal count until a write lands between the first snapshot and a later
// one (failing only at a fixed deadline) — on one CPU the snapshot loop can
// otherwise finish before any writer is scheduled.
func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	const window = 1000 // Base rows each writer keeps (plus the one in flight)
	db := New()
	db.MustCreateTable("Base", "a", "b")
	var stop atomic.Bool
	var writes atomic.Int64
	var wg sync.WaitGroup
	const writers = 3
	wrote := make(chan struct{}, writers) // one send per writer, after its first write
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				db.MustInsert("Base", fmt.Sprint(w), fmt.Sprintf("%d-%d", w, i))
				if i >= window {
					if _, err := db.Delete("Base", "b", fmt.Sprintf("%d-%d", w, i-window)); err != nil {
						panic(err)
					}
				}
				name := fmt.Sprintf("T%d_%d", w, i%5)
				switch i % 3 {
				case 0:
					_ = db.CreateTable(name, "x", "y")
				case 1:
					_ = db.Insert(name, fmt.Sprint(i), "v")
				default:
					_ = db.DropTable(name)
				}
				writes.Add(1)
				if i == 0 {
					wrote <- struct{}{}
				}
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-wrote
	}
	const snapshots = 50
	deadline := time.Now().Add(10 * time.Second)
	var firstDone, lastStart int64
	for i := 0; i < snapshots || (lastStart <= firstDone && time.Now().Before(deadline)); i++ {
		lastStart = writes.Load()
		var buf bytes.Buffer
		if err := db.WriteSnapshot(&buf); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if i == 0 {
			firstDone = writes.Load()
		}
		fresh := New()
		if err := fresh.ReadSnapshot(&buf); err != nil {
			t.Fatalf("snapshot %d does not load: %v", i, err)
		}
		if n := fresh.Table("Base").Len(); n > 3*(window+1) {
			t.Fatalf("snapshot %d holds %d Base rows, want ≤ %d", i, n, 3*(window+1))
		}
	}
	stop.Store(true)
	wg.Wait()
	if lastStart <= firstDone {
		t.Fatalf("no writes landed between the first and last snapshot (%d, %d): the race never happened", firstDone, lastStart)
	}
}

// TestSnapshotIndexedRoundTrip checks a snapshot restores hash indexes and
// leaves the planner's statistics coherent: the restored table's planRows
// must equal its actual row count (no stale stats epoch from the donor),
// and the load must advance the stats epoch so cached plans recompile.
func TestSnapshotIndexedRoundTrip(t *testing.T) {
	db := New()
	db.MustCreateTable("F", "fno", "dest")
	for i := 0; i < 100; i++ {
		db.MustInsert("F", fmt.Sprint(i), "Rome")
	}
	if err := db.CreateIndex("F", "fno"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := New()
	epochBefore := fresh.StatsEpoch()
	if err := fresh.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if fresh.StatsEpoch() == epochBefore {
		t.Fatal("ReadSnapshot must advance the stats epoch")
	}
	ft := fresh.Table("F")
	if ft == nil || ft.Len() != 100 {
		t.Fatalf("restored table: %v", ft)
	}
	if ft.planRows != ft.Len() {
		t.Fatalf("planRows = %d, want %d (stale planner stats)", ft.planRows, ft.Len())
	}
	if len(ft.indexes) != 1 {
		t.Fatalf("restored table has %d indexes, want 1", len(ft.indexes))
	}
	idx, ok := ft.indexes[0] // fno is column 0
	if !ok || len(idx["42"]) != 1 {
		t.Fatalf("fno index not rebuilt: %v", ft.indexes)
	}
}

// TestSnapshotVersionTyped: version skew must be errors.Is-distinguishable
// from corruption.
func TestSnapshotVersionTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snapshot{Version: snapshotVersion + 1}); err != nil {
		t.Fatal(err)
	}
	err := New().ReadSnapshot(&buf)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("err = %v, want ErrSnapshotVersion", err)
	}
	// Corruption is NOT a version error.
	err = New().ReadSnapshot(bytes.NewReader([]byte("garbage")))
	if err == nil || errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("corrupt snapshot: %v", err)
	}
}
