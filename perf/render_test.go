package main

import (
	"strings"
	"testing"

	"entangle/internal/ir"
)

// seekQuery is the Fig. 6 random-workload shape with lowercase constants.
func seekQuery() *ir.Query {
	return &ir.Query{ID: 1, Choose: 1,
		Heads: []ir.Atom{ir.NewAtom("R_g1", ir.Const("u86"), ir.Const("AAB"))},
		Posts: []ir.Atom{ir.NewAtom("R_g1", ir.Var("x"), ir.Const("AAB"))},
		Body: []ir.Atom{
			ir.NewAtom("F", ir.Const("u86"), ir.Var("x")),
			ir.NewAtom("U", ir.Const("u86"), ir.Var("c")),
			ir.NewAtom("U", ir.Var("x"), ir.Var("c")),
		},
	}
}

func TestRenderedTextsRoundTrip(t *testing.T) {
	q := seekQuery()
	text := renderIR(q)
	if !strings.Contains(text, "'u86'") {
		t.Errorf("IR text %q leaves a lowercase constant unquoted", text)
	}
	if err := checkIRRoundTrip(q, text); err != nil {
		t.Error(err)
	}
	sql, err := renderSQL(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSQLRoundTrip(q, sql, schema); err != nil {
		t.Error(err)
	}
}

// The root renderer is what the round-trip check exists to avoid: its text
// reads back with the user names turned into variables.
func TestQueryStringDoesNotRoundTrip(t *testing.T) {
	q := seekQuery()
	if err := checkIRRoundTrip(q, q.String()); err == nil {
		t.Skip("Query.String now quotes lowercase constants; the benchmark's own renderer is no longer needed for correctness")
	}
}

func TestSameUpToRenaming(t *testing.T) {
	q := seekQuery()
	r := q.Apply(ir.Substitution{"x": ir.Var("y"), "c": ir.Var("z")})
	if err := sameUpToRenaming(q, r); err != nil {
		t.Errorf("a consistent renaming must match: %v", err)
	}
	merged := q.Apply(ir.Substitution{"c": ir.Var("x")})
	if sameUpToRenaming(q, merged) == nil {
		t.Error("two variables collapsed into one must not match")
	}
	grounded := q.Clone()
	grounded.Body[0].Args[0] = ir.Var("u86")
	if sameUpToRenaming(q, grounded) == nil {
		t.Error("a constant read back as a variable must not match")
	}
	other := q.Clone()
	other.Heads[0].Args[1] = ir.Const("AAC")
	if sameUpToRenaming(q, other) == nil {
		t.Error("a changed constant must not match")
	}
}
