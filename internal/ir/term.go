// Package ir defines the intermediate representation for entangled queries.
//
// An entangled query in the intermediate representation has the form
//
//	{C} H :- B
//
// where C (the postcondition) and H (the head) are conjunctions of
// relational atoms over ANSWER relations, and B (the body) is a conjunction
// of relational atoms over ordinary database relations. Atoms contain
// constants and variables; every variable appearing in H or C must also
// appear in B (range restriction). This mirrors Section 2.2 of the paper
// "Entangled Queries: Enabling Declarative Data-Driven Coordination"
// (SIGMOD 2011).
package ir

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TermKind distinguishes variables from constants.
type TermKind uint8

const (
	// KindVar marks a term as a variable.
	KindVar TermKind = iota
	// KindConst marks a term as a constant value.
	KindConst
)

// Term is a variable or a constant appearing as an atom argument.
// All constants are represented as strings; the database substrate
// (internal/memdb) stores string values as well, so no conversion layer is
// needed between matching and evaluation.
//
// The zero value is the constant empty string; use Var and Const to build
// terms explicitly.
type Term struct {
	Kind  TermKind
	Value string
}

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{Kind: KindVar, Value: name} }

// Const returns a constant term with the given value.
func Const(v string) Term { return Term{Kind: KindConst, Value: v} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == KindVar }

// IsConst reports whether the term is a constant.
func (t Term) IsConst() bool { return t.Kind == KindConst }

// String renders the term. Variables print as their name; constants print
// as-is when the parser would read them back as the same constant, and
// single-quoted otherwise.
func (t Term) String() string {
	if t.Kind == KindVar || !needsQuoting(t.Value) {
		return t.Value
	}
	var b strings.Builder
	t.writeTo(&b)
	return b.String()
}

// writeTo appends the term's text form to b, quoting in place so callers
// that render whole atoms allocate nothing per term.
func (t Term) writeTo(b *strings.Builder) {
	if t.Kind == KindVar || !needsQuoting(t.Value) {
		b.WriteString(t.Value)
		return
	}
	b.WriteByte('\'')
	v := t.Value
	for i := strings.IndexByte(v, '\''); i >= 0; i = strings.IndexByte(v, '\'') {
		b.WriteString(v[:i+1])
		b.WriteByte('\'') // a quote inside a quoted constant is doubled
		v = v[i+1:]
	}
	b.WriteString(v)
	b.WriteByte('\'')
}

// Key returns a string that uniquely identifies the term across both kinds:
// variables and constants with the same spelling never collide.
func (t Term) Key() string {
	if t.Kind == KindVar {
		return "v\x00" + t.Value
	}
	return "c\x00" + t.Value
}

// needsQuoting reports whether a constant must be quoted to parse back as
// itself: it is empty, contains a rune outside the bare-word set, or starts
// with a lowercase letter, which the parser reads as a variable.
func needsQuoting(s string) bool {
	if first, _ := utf8.DecodeRuneInString(s); s == "" || unicode.IsLower(first) {
		return true
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return true
		}
	}
	return false
}

// Equal reports whether two terms are identical (same kind and spelling).
func (t Term) Equal(u Term) bool { return t.Kind == u.Kind && t.Value == u.Value }

// Atom is a relational atom R(t1, ..., tn).
type Atom struct {
	Rel  string
	Args []Term
}

// NewAtom builds an atom over relation rel with the given arguments.
func NewAtom(rel string, args ...Term) Atom {
	return Atom{Rel: rel, Args: args}
}

// Arity returns the number of arguments of the atom.
func (a Atom) Arity() int { return len(a.Args) }

// String renders the atom in the IR text syntax, e.g. R(Kramer, x).
func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Rel)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		t.writeTo(&b)
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether two atoms are syntactically identical.
func (a Atom) Equal(b Atom) bool {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// Vars appends the variables of the atom to dst and returns it.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		if t.IsVar() {
			dst = append(dst, t.Value)
		}
	}
	return dst
}

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Rel: a.Rel, Args: args}
}

// Rename returns a copy of the atom with every variable renamed through f.
func (a Atom) Rename(f func(string) string) Atom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsVar() {
			out.Args[i] = Var(f(t.Value))
		}
	}
	return out
}

// Substitution maps variable names to terms.
type Substitution map[string]Term

// Apply returns a copy of the atom with variables replaced according to the
// substitution. Variables absent from the substitution are left intact.
func (a Atom) Apply(s Substitution) Atom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsVar() {
			if repl, ok := s[t.Value]; ok {
				out.Args[i] = repl
			}
		}
	}
	return out
}

// Unifiable reports whether two atoms can be unified: they must refer to the
// same relation with the same arity and must not contain different constants
// at the same position. (Section 3.1.1 of the paper; variable repetition
// within the atoms is resolved by the full unifier machinery in
// internal/unify — this predicate is the cheap syntactic pre-check used by
// the safety definition and the atom index.)
func Unifiable(a, b Atom) bool {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i].IsConst() && b.Args[i].IsConst() && a.Args[i].Value != b.Args[i].Value {
			return false
		}
	}
	return true
}

// FormatAtoms renders a conjunction of atoms joined by " ∧ ".
func FormatAtoms(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " ∧ ")
}

// Equality is an equality constraint t1 = t2 used in combined queries to
// encode the global unifier ϕU (Section 4.2).
type Equality struct {
	Left, Right Term
}

// String renders the equality in ϕU syntax.
func (e Equality) String() string {
	return fmt.Sprintf("%s = %s", e.Left, e.Right)
}
