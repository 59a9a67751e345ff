package main

import (
	"fmt"
	"strings"

	"entangle/internal/eqsql"
	"entangle/internal/ir"
)

// The benchmark renders its generated queries to text itself instead of
// calling (*ir.Query).String: that renderer leaves lowercase constants such
// as user names ("u86") unquoted, and the IR parser reads an unquoted
// lowercase identifier as a variable. Every text is parsed back before the
// measured phase and must equal the generated query up to variable
// renaming (checkRoundTrip).

// quote renders a constant as a single-quoted literal, doubling quotes.
func quote(v string) string { return "'" + strings.ReplaceAll(v, "'", "''") + "'" }

// renderIRTerm renders a term with every constant quoted.
func renderIRTerm(t ir.Term) string {
	if t.IsVar() {
		return t.Value
	}
	return quote(t.Value)
}

func renderIRAtoms(atoms []ir.Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		args := make([]string, len(a.Args))
		for j, t := range a.Args {
			args[j] = renderIRTerm(t)
		}
		parts[i] = a.Rel + "(" + strings.Join(args, ", ") + ")"
	}
	return strings.Join(parts, " ∧ ")
}

// renderIR renders q in the IR text syntax {C} H :- B with every constant
// quoted. Only CHOOSE 1 queries are generated, which the syntax implies.
func renderIR(q *ir.Query) string {
	s := "{" + renderIRAtoms(q.Posts) + "} " + renderIRAtoms(q.Heads)
	if len(q.Body) > 0 {
		s += " :- " + renderIRAtoms(q.Body)
	}
	return s
}

// sqlVar names an IR variable at the outer SQL scope. The prefix keeps it
// apart from column names, which an unqualified name inside a subquery
// would otherwise resolve to.
func sqlVar(name string) string { return "v_" + name }

func sqlTerm(t ir.Term) string {
	if t.IsVar() {
		return sqlVar(t.Value)
	}
	return quote(t.Value)
}

// renderSQL renders a single-head CHOOSE 1 query as entangled SQL. Each
// body atom Rel(a1, …, an) over columns c1…cn becomes one condition
//
//	a1 IN (SELECT c1 FROM Rel WHERE c2 = a2 AND … AND cn = an)
//
// in body order, so the translated body lists the atoms in the same order;
// each postcondition becomes (args) IN ANSWER Rel.
func renderSQL(q *ir.Query, schema map[string][]string) (string, error) {
	if len(q.Heads) != 1 || q.Choose != 1 {
		return "", fmt.Errorf("render sql: query %d: need one head and CHOOSE 1", q.ID)
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, t := range q.Heads[0].Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(sqlTerm(t))
	}
	b.WriteString(" INTO ANSWER ")
	b.WriteString(q.Heads[0].Rel)
	var conds []string
	for _, a := range q.Body {
		cols, ok := schema[a.Rel]
		if !ok || len(cols) != len(a.Args) {
			return "", fmt.Errorf("render sql: query %d: no schema for %s/%d", q.ID, a.Rel, len(a.Args))
		}
		c := sqlTerm(a.Args[0]) + " IN (SELECT " + cols[0] + " FROM " + a.Rel
		for j := 1; j < len(cols); j++ {
			if j == 1 {
				c += " WHERE "
			} else {
				c += " AND "
			}
			c += cols[j] + " = " + sqlTerm(a.Args[j])
		}
		conds = append(conds, c+")")
	}
	for _, p := range q.Posts {
		args := make([]string, len(p.Args))
		for j, t := range p.Args {
			args[j] = sqlTerm(t)
		}
		conds = append(conds, "("+strings.Join(args, ", ")+") IN ANSWER "+p.Rel)
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	b.WriteString(" CHOOSE 1")
	return b.String(), nil
}

// sameUpToRenaming reports (as an error) how a differs from b, ignoring IDs,
// owners and the spelling of variables: the atoms must match in order,
// relation and arity; constants must be equal; and variables must
// correspond one-to-one.
func sameUpToRenaming(a, b *ir.Query) error {
	if a.Choose != b.Choose {
		return fmt.Errorf("CHOOSE %d vs %d", a.Choose, b.Choose)
	}
	ab := make(map[string]string)
	ba := make(map[string]string)
	cmp := func(part string, xs, ys []ir.Atom) error {
		if len(xs) != len(ys) {
			return fmt.Errorf("%s: %d atoms vs %d", part, len(xs), len(ys))
		}
		for i := range xs {
			x, y := xs[i], ys[i]
			if x.Rel != y.Rel || len(x.Args) != len(y.Args) {
				return fmt.Errorf("%s atom %d: %s/%d vs %s/%d", part, i, x.Rel, len(x.Args), y.Rel, len(y.Args))
			}
			for j := range x.Args {
				s, t := x.Args[j], y.Args[j]
				if s.Kind != t.Kind {
					return fmt.Errorf("%s atom %d arg %d: %v vs %v differ in kind", part, i, j, s, t)
				}
				if s.IsConst() {
					if s.Value != t.Value {
						return fmt.Errorf("%s atom %d arg %d: constant %q vs %q", part, i, j, s.Value, t.Value)
					}
					continue
				}
				if m, ok := ab[s.Value]; ok && m != t.Value {
					return fmt.Errorf("%s atom %d arg %d: variable %s maps to both %s and %s", part, i, j, s.Value, m, t.Value)
				}
				if m, ok := ba[t.Value]; ok && m != s.Value {
					return fmt.Errorf("%s atom %d arg %d: variable %s maps back to both %s and %s", part, i, j, t.Value, m, s.Value)
				}
				ab[s.Value], ba[t.Value] = t.Value, s.Value
			}
		}
		return nil
	}
	if err := cmp("head", a.Heads, b.Heads); err != nil {
		return err
	}
	if err := cmp("post", a.Posts, b.Posts); err != nil {
		return err
	}
	return cmp("body", a.Body, b.Body)
}

// checkSQLRoundTrip parses text with eqsql against schema and compares the
// result with q.
func checkSQLRoundTrip(q *ir.Query, text string, schema map[string][]string) error {
	tr, err := eqsql.Parse(0, text, eqsql.MapSchema(schema), eqsql.Options{})
	if err != nil {
		return fmt.Errorf("query %d: eqsql parse: %w", q.ID, err)
	}
	if err := sameUpToRenaming(q, tr.Query); err != nil {
		return fmt.Errorf("query %d: sql round trip: %v\n  text: %s", q.ID, err, text)
	}
	return nil
}

// checkIRRoundTrip parses text with ir.Parse and compares the result with q.
func checkIRRoundTrip(q *ir.Query, text string) error {
	p, err := ir.Parse(0, text)
	if err != nil {
		return fmt.Errorf("query %d: ir parse: %w", q.ID, err)
	}
	if err := sameUpToRenaming(q, p); err != nil {
		return fmt.Errorf("query %d: ir round trip: %v\n  text: %s", q.ID, err, text)
	}
	return nil
}
