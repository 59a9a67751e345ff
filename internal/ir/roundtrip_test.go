package ir

// Property-based round-trip tests: randomly generated queries must survive
// String() → Parse() with identical structure, for arbitrary combinations
// of variables, constants, arities and conjunction sizes.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genQuery builds a random structurally valid query from a fuzz vector.
func genQuery(rng *rand.Rand) *Query {
	vars := []string{"x", "y", "z", "w"}
	consts := []string{"Jerry", "Kramer", "122", "Paris", "multi word'quote", "u86"}
	// Fixed arity per relation name (Validate enforces consistency).
	bodyRels := map[string]int{"F": 2, "U": 2, "D1": 3}
	bodyNames := []string{"F", "U", "D1"}

	mkTerm := func() Term {
		if rng.Intn(2) == 0 {
			return Var(vars[rng.Intn(len(vars))])
		}
		return Const(consts[rng.Intn(len(consts))])
	}
	mkAtom := func(rel string, arity int) Atom {
		args := make([]Term, arity)
		for i := range args {
			args[i] = mkTerm()
		}
		return NewAtom(rel, args...)
	}
	// Body first: it must bind every variable, so include one atom with
	// all four variables.
	q := &Query{ID: 1, Choose: 1}
	all := make([]Term, len(vars))
	for i, v := range vars {
		all[i] = Var(v)
	}
	q.Body = append(q.Body, NewAtom("Bind", all...))
	for i := 0; i < rng.Intn(3); i++ {
		name := bodyNames[rng.Intn(len(bodyNames))]
		q.Body = append(q.Body, mkAtom(name, bodyRels[name]))
	}
	arity := 1 + rng.Intn(3) // answer relation R gets one arity per query
	for i := 0; i < 1+rng.Intn(2); i++ {
		q.Heads = append(q.Heads, mkAtom("R", arity))
	}
	for i := 0; i < rng.Intn(3); i++ {
		q.Posts = append(q.Posts, mkAtom("R", arity))
	}
	return q
}

func TestQueryStringParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := genQuery(rng)
		if err := q.Validate(); err != nil {
			t.Logf("generated invalid query (generator bug): %v", err)
			return false
		}
		text := q.String()
		q2, err := Parse(q.ID, text)
		if err != nil {
			t.Logf("re-parse of %q failed: %v", text, err)
			return false
		}
		return queriesEqual(q, q2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAtomStringParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := genQuery(rng)
		for _, a := range append(append(q.Heads, q.Posts...), q.Body...) {
			back, err := ParseAtom(a.String())
			if err != nil {
				t.Logf("atom %q: %v", a.String(), err)
				return false
			}
			if !back.Equal(a) {
				t.Logf("atom %q re-parsed as %q", a.String(), back.String())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLowercaseConstantRoundTrip: a constant that starts with a lowercase
// letter must render quoted, or re-parsing reads it as a variable. The WAL
// and checkpoints log Query.String(), so recovery depends on this.
func TestLowercaseConstantRoundTrip(t *testing.T) {
	for _, src := range []string{
		"{R('Bob', x)} R('u86', x) :- F(x, 'rome')",
		"{R(Bob, x)} R('it''s', x) :- F(x, 'é')",
	} {
		q, err := Parse(1, src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		text := q.String()
		back, err := Parse(1, text)
		if err != nil {
			t.Fatalf("re-parse of %q (rendered from %q): %v", text, src, err)
		}
		if !queriesEqual(q, back) {
			t.Fatalf("%q rendered as %q, which re-parses as %q", src, text, back.String())
		}
	}
	if got := Const("u86").String(); got != "'u86'" {
		t.Fatalf("Const(u86).String() = %s, want 'u86'", got)
	}
}

func queriesEqual(a, b *Query) bool {
	eq := func(x, y []Atom) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !x[i].Equal(y[i]) {
				return false
			}
		}
		return true
	}
	return eq(a.Heads, b.Heads) && eq(a.Posts, b.Posts) && eq(a.Body, b.Body)
}

// TestRenameApartPreservesStructure: renaming is a bijection on variables
// and leaves constants and shape untouched; grounding semantics are
// preserved under renaming.
func TestRenameApartPreservesStructure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := genQuery(rng)
		q.ID = QueryID(rng.Intn(1000) + 1)
		r := q.RenameApart()
		if len(r.Heads) != len(q.Heads) || len(r.Posts) != len(q.Posts) || len(r.Body) != len(q.Body) {
			return false
		}
		// Same constants at the same positions; variables renamed
		// injectively.
		mapping := map[string]string{}
		check := func(orig, ren []Atom) bool {
			for i := range orig {
				if orig[i].Rel != ren[i].Rel || len(orig[i].Args) != len(ren[i].Args) {
					return false
				}
				for j := range orig[i].Args {
					o, n := orig[i].Args[j], ren[i].Args[j]
					if o.IsConst() {
						if !o.Equal(n) {
							return false
						}
						continue
					}
					if !n.IsVar() {
						return false
					}
					if prev, ok := mapping[o.Value]; ok {
						if prev != n.Value {
							return false
						}
					} else {
						mapping[o.Value] = n.Value
					}
				}
			}
			return true
		}
		if !check(q.Heads, r.Heads) || !check(q.Posts, r.Posts) || !check(q.Body, r.Body) {
			return false
		}
		// Injective: no two old variables map to one new name.
		seen := map[string]bool{}
		for _, v := range mapping {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
