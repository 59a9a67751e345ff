// Package memdb is the relational database substrate for the D3C engine.
//
// The paper's implementation sent combined queries to MySQL 4.1.20 over
// JDBC. This reproduction is stdlib-only, so memdb provides the slice of
// relational functionality those combined queries need: named tables with
// string-valued columns, hash indexes, and an evaluator for conjunctive
// (select-project-join) queries with equality constraints and LIMIT — which
// is exactly the class of queries that Section 4.2's combined-query
// construction emits.
//
// All values are strings; the IR's constants map onto them directly. Tables
// are safe for concurrent readers; writers take an exclusive lock.
//
// # Compiled evaluation plans
//
// Evaluation is split into a compile step and an execute step (plan.go).
// CompilePlan (or, on hot paths, a pooled PlanBuilder fed pre-classified
// argument descriptors) interns variables to dense binding slots, folds
// equality constraints into the descriptors, and fixes the entire join
// order and each atom's index-probe position at compile time. Atom
// selection is cardinality-aware: each candidate's cost is its table's
// live row count shifted down by three bits per const/bound argument
// position (size >> min(3·bound, 30)) — a selectivity estimate that sends
// the join through small or well-bound relations first — with ties broken
// by more bound positions, then input order; since the rule reads only
// table sizes and the const/bound pattern, never row values, the order is
// still a compile-time constant for a given database state. ExecPlan then
// runs the backtracking join over a slice-backed binding array with an int
// trail, building hash indexes for exactly the declared probe positions
// (never-probed positions stay unindexed) and allocating nothing in steady
// state with a reused ExecState. Single-atom plans skip the join-order
// simulation entirely. EvalConjunctiveLegacy retains the map-backed
// evaluator as the executable specification the compiled path is
// equivalence-tested against (identical valuations and CHOOSE draws).
//
// # Plan cache
//
// Compiled plans are cacheable and parameterised: constant positions can
// compile to late-bound parameters (PlanBuilder.AddParam +
// ExecState.SetParams), so one plan serves every query of the same shape
// and only the parameter values differ per execution. PlanCache is the
// shape-keyed, LRU-bounded, concurrency-safe store for such plans; cached
// plans are detached from their builder's pooled storage. Invalidation is
// by unreachability: every shape key embeds the DB's stats epoch
// (StatsEpoch), which bumps on DDL (CreateTable/DropTable/ReadSnapshot)
// and when a table's row count drifts outside a band around the count the
// epoch last saw (planRows; grow past 2n+16 or shrink below n/2) — so
// plans whose join order was chosen for stale cardinalities age out of the
// LRU instead of being served.
package memdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Row is one tuple of a table. Positions correspond to the table's columns.
type Row []string

// Table is a named relation with a fixed column list. Hash indexes are
// built lazily per column on first use by the evaluator.
type Table struct {
	name    string
	cols    []string
	rows    []Row
	indexes map[int]map[string][]int // column → value → row ids
	// planRows is the row count at the last stats-epoch bump attributed to
	// this table. Join-order compilation reads live row counts; once the
	// count drifts outside a band around planRows the DB's stats epoch is
	// bumped so shape-keyed plan caches stop serving orders chosen for the
	// old cardinality. Guarded by the DB write lock.
	planRows int
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns a copy of the column names.
func (t *Table) Columns() []string { return append([]string(nil), t.cols...) }

// ColumnsView returns the column names without copying, for read-only
// callers on hot paths. The slice is the table's own and must not be
// modified; a table's columns never change after CreateTable.
func (t *Table) ColumnsView() []string { return t.cols[:len(t.cols):len(t.cols)] }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Arity returns the number of columns.
func (t *Table) Arity() int { return len(t.cols) }

// DB is an in-memory relational database.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// statsEpoch advances whenever the inputs of join-order compilation
	// change materially: any DDL (table created or dropped), and any table
	// whose row count drifts outside the band around its count at the last
	// bump. Plan caches key on the epoch, so a bump makes every cached join
	// order unreachable without an explicit purge.
	statsEpoch atomic.Uint64
}

// New returns an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable creates a table with the given columns. It fails if the table
// exists or has no columns.
func (db *DB) CreateTable(name string, cols ...string) error {
	if len(cols) == 0 {
		return fmt.Errorf("memdb: table %s needs at least one column", name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return fmt.Errorf("memdb: table %s already exists", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c] {
			return fmt.Errorf("memdb: table %s: duplicate column %s", name, c)
		}
		seen[c] = true
	}
	db.tables[name] = &Table{
		name:    name,
		cols:    append([]string(nil), cols...),
		indexes: make(map[int]map[string][]int),
	}
	db.statsEpoch.Add(1)
	return nil
}

// MustCreateTable is CreateTable that panics on error; for tests and setup
// code with literal schemas.
func (db *DB) MustCreateTable(name string, cols ...string) {
	if err := db.CreateTable(name, cols...); err != nil {
		panic(err)
	}
}

// DropTable removes a table. It returns an error if the table is unknown.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("memdb: no table %s", name)
	}
	delete(db.tables, name)
	db.statsEpoch.Add(1)
	return nil
}

// StatsEpoch returns the current statistics epoch: a counter that advances
// on DDL and whenever some table's row count drifts outside the band around
// its count at the previous bump. Callers that cache anything derived from
// table cardinalities (compiled join orders) should key on it.
func (db *DB) StatsEpoch() uint64 { return db.statsEpoch.Load() }

// noteSizeLocked bumps the stats epoch when t's row count has drifted
// outside the band around the count recorded at the last bump — growth past
// 2n+16 or shrinkage below n/2. The band makes epoch bumps logarithmic in
// table growth: steady inserts invalidate cached join orders O(log n) times,
// not per row. Caller holds the write lock.
func (db *DB) noteSizeLocked(t *Table) {
	n := len(t.rows)
	if n > 2*t.planRows+16 || n < t.planRows/2 {
		t.planRows = n
		db.statsEpoch.Add(1)
	}
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// TableNames returns the sorted table names.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Insert appends one row. The value count must match the table's arity.
func (db *DB) Insert(table string, values ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("memdb: no table %s", table)
	}
	if len(values) != len(t.cols) {
		return fmt.Errorf("memdb: table %s has %d columns, got %d values", table, len(t.cols), len(values))
	}
	id := len(t.rows)
	t.rows = append(t.rows, append(Row(nil), values...))
	for col, ix := range t.indexes {
		ix[values[col]] = append(ix[values[col]], id)
	}
	db.noteSizeLocked(t)
	return nil
}

// MustInsert is Insert that panics on error.
func (db *DB) MustInsert(table string, values ...string) {
	if err := db.Insert(table, values...); err != nil {
		panic(err)
	}
}

// BulkInsert appends many rows at once under a single lock acquisition.
func (db *DB) BulkInsert(table string, rows [][]string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("memdb: no table %s", table)
	}
	for _, values := range rows {
		if len(values) != len(t.cols) {
			return fmt.Errorf("memdb: table %s has %d columns, got %d values", table, len(t.cols), len(values))
		}
		id := len(t.rows)
		t.rows = append(t.rows, append(Row(nil), values...))
		for col, ix := range t.indexes {
			ix[values[col]] = append(ix[values[col]], id)
		}
	}
	db.noteSizeLocked(t)
	return nil
}

// CreateIndex builds (or rebuilds) a hash index on the given column.
func (db *DB) CreateIndex(table, column string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("memdb: no table %s", table)
	}
	col := -1
	for i, c := range t.cols {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return fmt.Errorf("memdb: table %s has no column %s", table, column)
	}
	t.buildIndex(col)
	return nil
}

// buildIndex constructs the hash index for a column position. The map is
// pre-sized from the table's stats: planRows (the row count the stats epoch
// last saw — what join-order compilation planned against) or the live count,
// whichever is larger, so bulk-loaded tables build their probe indexes
// without incremental map growth. Distinct values bound the real bucket
// need from above; ID-like probe columns (the common case) sit at the
// bound. Caller holds the write lock (or is the evaluator, which upgrades
// explicitly).
func (t *Table) buildIndex(col int) {
	hint := t.planRows
	if n := len(t.rows); n > hint {
		hint = n
	}
	ix := make(map[string][]int, hint)
	for id, row := range t.rows {
		ix[row[col]] = append(ix[row[col]], id)
	}
	t.indexes[col] = ix
}

// lookupEq returns the row ids whose column equals value (ascending, i.e.
// insertion order either way): the index's posting list when one exists,
// otherwise a scan appended into scratch so the fallback allocates nothing
// once the caller's scratch has grown. The second result is the scratch to
// retain for the next call — the caller must NOT retain the first result as
// scratch, since in the indexed case it aliases the live index. Caller holds
// at least the read lock.
func (t *Table) lookupEq(col int, value string, scratch []int) (ids, retain []int) {
	if ix, ok := t.indexes[col]; ok {
		return ix[value], scratch
	}
	out := scratch[:0]
	for id, row := range t.rows {
		if row[col] == value {
			out = append(out, id)
		}
	}
	return out, out
}

// Rows returns a snapshot copy of all rows. Intended for tests and tools,
// not hot paths.
func (db *DB) Rows(table string) ([][]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[table]
	if !ok {
		return nil, fmt.Errorf("memdb: no table %s", table)
	}
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out, nil
}

// String summarizes the database contents.
func (db *DB) String() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var b strings.Builder
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := db.tables[n]
		fmt.Fprintf(&b, "%s(%s): %d rows\n", n, strings.Join(t.cols, ", "), len(t.rows))
	}
	return b.String()
}
