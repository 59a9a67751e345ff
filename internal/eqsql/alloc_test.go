package eqsql

import (
	"testing"

	"entangle/internal/memdb"
)

// pairSQL is one Fig. 6 random-workload pair member as the end-to-end
// benchmark renders it: {R_g1(x, ABJ)} R_g1(u1626, ABJ) :- F(u1626, x) ∧
// U(u1626, c) ∧ U(x, c).
const pairSQL = `SELECT 'u1626', 'ABJ' INTO ANSWER R_g1 WHERE 'u1626' IN (SELECT u1 FROM F WHERE u2 = v_x) AND 'u1626' IN (SELECT u FROM U WHERE city = v_c) AND v_x IN (SELECT u FROM U WHERE city = v_c) AND (v_x, 'ABJ') IN ANSWER R_g1 CHOOSE 1`

// parseCases are the statements the allocation guard and BenchmarkParseSQL
// measure, each with its pinned allocs/op budget for Parse against a
// DBSchema (the server's path). The budgets sit two or three allocations
// above the measured counts (Kramer 18, Jerry 20, pair 29), far below what
// per-term key strings and maps cost (87, 120 and 171 with a map-based
// unifier).
var parseCases = []struct {
	name   string
	src    string
	budget float64
}{
	{"kramer", kramerSQL, 20},
	{"jerry", jerrySQL, 22},
	{"pair", pairSQL, 32},
}

// allocSchema holds the tables of all three statements in a memdb
// database, so DBSchema's column lookup is part of the measured path.
func allocSchema(tb testing.TB) Schema {
	tb.Helper()
	db := memdb.New()
	for _, t := range [][]string{
		{"Flights", "fno", "dest"},
		{"Airlines", "fno", "airline"},
		{"F", "u1", "u2"},
		{"U", "u", "city"},
	} {
		if err := db.CreateTable(t[0], t[1:]...); err != nil {
			tb.Fatal(err)
		}
	}
	return DBSchema{DB: db}
}

func TestParseSQLAllocs(t *testing.T) {
	schema := allocSchema(t)
	for _, c := range parseCases {
		if _, err := Parse(1, c.src, schema, Options{}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := testing.AllocsPerRun(200, func() {
			_, _ = Parse(1, c.src, schema, Options{})
		})
		t.Logf("%s: %.0f allocs/op (budget %.0f)", c.name, got, c.budget)
		if got > c.budget {
			t.Errorf("%s: %.0f allocs/op, budget %.0f", c.name, got, c.budget)
		}
	}
}

func BenchmarkParseSQL(b *testing.B) {
	schema := allocSchema(b)
	for _, c := range parseCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.src)))
			for i := 0; i < b.N; i++ {
				if _, err := Parse(1, c.src, schema, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
