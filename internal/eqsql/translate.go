package eqsql

import (
	"bytes"
	"fmt"
	"strconv"

	"entangle/internal/ir"
	"entangle/internal/memdb"
	"entangle/internal/unify"
)

// Schema supplies column names for database tables so that positional atoms
// can be built from named-column SQL.
type Schema interface {
	// Columns returns the ordered column names of a table, or an error if
	// the table is unknown. Callers must not modify the returned slice.
	Columns(table string) ([]string, error)
}

// DBSchema adapts a memdb database as a Schema. Its column slices are the
// tables' own (memdb.Table.ColumnsView), not copies.
type DBSchema struct{ DB *memdb.DB }

// Columns implements Schema.
func (s DBSchema) Columns(table string) ([]string, error) {
	t := s.DB.Table(table)
	if t == nil {
		return nil, fmt.Errorf("eqsql: unknown table %s", table)
	}
	return t.ColumnsView(), nil
}

// MapSchema is a Schema backed by a literal map; useful in tests and for
// declaring ANSWER relation layouts.
type MapSchema map[string][]string

// Columns implements Schema.
func (m MapSchema) Columns(table string) ([]string, error) {
	cols, ok := m[table]
	if !ok {
		return nil, fmt.Errorf("eqsql: unknown table %s", table)
	}
	return cols, nil
}

// AggConstraint is a translated Section 6 aggregation condition: the count
// of coordinated answer tuples matching AnswerAtoms (joined with BodyAtoms
// over database relations) must satisfy `count Op Bound`.
type AggConstraint struct {
	AnswerAtoms []ir.Atom
	BodyAtoms   []ir.Atom
	Op          string
	Bound       int
}

// Translated bundles a translation result: the core IR query plus any
// extension constraints that the core algorithm does not interpret.
type Translated struct {
	Query      *ir.Query
	Aggregates []AggConstraint
}

// Options tunes translation.
type Options struct {
	// AnswerSchemas maps ANSWER relation names to their column lists.
	// Required only when aggregation subqueries reference answer columns
	// by name.
	AnswerSchemas map[string][]string
	// AllowExtensions permits CHOOSE k (k > 1) and aggregation conditions;
	// when false those constructs are rejected, matching the core language
	// of Sections 2–4.
	AllowExtensions bool
}

// Translate converts a parsed statement into the intermediate
// representation, resolving column names through schema.
func Translate(id ir.QueryID, stmt *SelectStmt, schema Schema, opt Options) (*Translated, error) {
	var tr translator
	tr.schema, tr.opt = schema, opt
	tr.nodes, tr.args, tr.atoms, tr.env, tr.ends = tr.nodeBuf[:0], tr.argBuf[:0], tr.atomBuf[:0], tr.envBuf[:0], tr.endBuf[:0]
	return tr.run(id, stmt)
}

// Parse parses and translates in one step.
func Parse(id ir.QueryID, src string, schema Schema, opt Options) (*Translated, error) {
	stmt, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	return Translate(id, stmt, schema, opt)
}

// nodeKind tells what a translator node stands for.
type nodeKind uint8

const (
	nodeConst nodeKind = iota // a literal
	nodeNamed                 // a variable named by text: an outer name as written, or a fresh variable once named
	nodeFresh                 // a FROM column, a variable named _<column><n> if it must be named
)

// node is one term of the statement and a union-find element. Each outer
// name has one node; each literal occurrence and each FROM column has its
// own.
type node struct {
	text   string // constant value, outer name, or column name
	num    int32  // fresh variable number, counted over the statement
	parent int32
	konst  int32 // at a root: the class's constant node, or -1
	rep    int32 // at a root: the class's representative variable, or -1
	uses   int32 // outer names: occurrences in the statement
	kind   nodeKind
	// correlated marks an outer name referenced from inside a subquery.
	correlated bool
}

// Atom parts: where a recorded atom goes in the output. Aggregation k's
// answer atoms are part partAgg+2k, its body atoms partAgg+2k+1.
const (
	partHead = iota
	partPost
	partBody
	partAgg
)

// atomRec is an atom under construction: a relation over the argument
// nodes args[lo:hi].
type atomRec struct {
	rel    string
	lo, hi int32
	part   int32
}

// colEntry is one column of a FROM scope: ref.col denotes node.
type colEntry struct {
	ref, col string
	node     int32
}

// translator holds one statement's terms, atoms and current FROM scope.
// The slices start in the fixed buffers below, which hold a typical
// statement, so translation allocates little beyond its output.
type translator struct {
	schema Schema
	opt    Options
	nodes  []node
	args   []int32 // atom arguments as node indices
	atoms  []atomRec
	env    []colEntry
	fresh  int32
	aggs   []AggConstraint
	ends   []int // per part, after build: the end of its atoms in build's result

	nodeBuf [16]node
	argBuf  [16]int32
	atomBuf [8]atomRec
	envBuf  [8]colEntry
	endBuf  [partAgg + 2]int
}

func (tr *translator) newNode(kind nodeKind, text string) int32 {
	i := int32(len(tr.nodes))
	n := node{text: text, parent: i, konst: -1, rep: -1, kind: kind}
	if kind == nodeConst {
		n.konst = i
	}
	tr.nodes = append(tr.nodes, n)
	return i
}

func (tr *translator) freshVar(col string) int32 {
	tr.fresh++
	i := tr.newNode(nodeFresh, col)
	tr.nodes[i].num = tr.fresh
	return i
}

// outerVar returns the node of a bare identifier at the outer scope,
// creating it on first use, and counts the occurrence.
func (tr *translator) outerVar(name string) int32 {
	for i := range tr.nodes {
		if n := &tr.nodes[i]; n.kind == nodeNamed && n.text == name {
			n.uses++
			return int32(i)
		}
	}
	i := tr.newNode(nodeNamed, name)
	tr.nodes[i].uses = 1
	return i
}

func (tr *translator) find(i int32) int32 {
	for tr.nodes[i].parent != i {
		p := tr.nodes[i].parent
		tr.nodes[i].parent = tr.nodes[p].parent
		i = p
	}
	return i
}

// union merges the classes of a and b. Like unify.Unifier.Union it fails
// with ErrClash, naming a's constant first, when both classes hold
// distinct constants.
func (tr *translator) union(a, b int32) error {
	ra, rb := tr.find(a), tr.find(b)
	if ra == rb {
		return nil
	}
	ca, cb := tr.nodes[ra].konst, tr.nodes[rb].konst
	if ca >= 0 && cb >= 0 && tr.nodes[ca].text != tr.nodes[cb].text {
		return fmt.Errorf("%w: %q vs %q", unify.ErrClash, tr.nodes[ca].text, tr.nodes[cb].text)
	}
	tr.nodes[rb].parent = ra
	if ca < 0 {
		tr.nodes[ra].konst = cb
	}
	return nil
}

// addAtom records an atom over the argument nodes appended since lo.
func (tr *translator) addAtom(rel string, lo int, part int32) {
	tr.atoms = append(tr.atoms, atomRec{rel: rel, lo: int32(lo), hi: int32(len(tr.args)), part: part})
}

func (tr *translator) run(id ir.QueryID, stmt *SelectStmt) (*Translated, error) {
	if stmt.Choose != 1 && !tr.opt.AllowExtensions {
		return nil, fmt.Errorf("eqsql: CHOOSE %d requires the extensions option (core language fixes CHOOSE 1)", stmt.Choose)
	}
	if len(stmt.Into) == 0 {
		return nil, fmt.Errorf("eqsql: statement has no INTO ANSWER clause")
	}

	// Resolve SELECT items at the outer scope; every head shares them.
	lo := len(tr.args)
	for _, e := range stmt.Items {
		t, err := tr.resolveOuter(e)
		if err != nil {
			return nil, err
		}
		tr.args = append(tr.args, t)
	}
	for _, tbl := range stmt.Into {
		tr.addAtom(tbl, lo, partHead)
	}

	for _, c := range stmt.Where {
		if err := tr.condition(c); err != nil {
			return nil, err
		}
	}
	// An outer name met once, inside a subquery, is a column no FROM table
	// has: it would join nothing and filter nothing.
	for i := range tr.nodes {
		if n := &tr.nodes[i]; n.correlated && n.uses == 1 {
			return nil, fmt.Errorf("eqsql: unknown column %s: no table in its subquery's FROM has it, and it occurs nowhere else in the statement", n.text)
		}
	}

	atoms := tr.build()
	q := &ir.Query{
		ID:     id,
		Heads:  tr.part(atoms, partHead),
		Posts:  tr.part(atoms, partPost),
		Body:   tr.part(atoms, partBody),
		Choose: stmt.Choose,
	}
	for k := range tr.aggs {
		tr.aggs[k].AnswerAtoms = tr.part(atoms, partAgg+2*k)
		tr.aggs[k].BodyAtoms = tr.part(atoms, partAgg+2*k+1)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &Translated{Query: q, Aggregates: tr.aggs}, nil
}

// build materialises the recorded atoms, grouped by part in recording
// order, over one atom array and one term array, and leaves each part's
// end in tr.ends (see part). Every node resolves to its class constant, or
// else to the class's representative: the variable with the least name,
// as unify.Unifier.Resolve chooses it.
func (tr *translator) build() []ir.Atom {
	for i := range tr.nodes {
		n := &tr.nodes[i]
		if n.kind == nodeConst {
			continue
		}
		r := &tr.nodes[tr.find(int32(i))]
		if r.konst < 0 && (r.rep < 0 || tr.nameLess(int32(i), r.rep)) {
			r.rep = int32(i)
		}
	}
	tr.nameFreshReps()

	nargs := 0
	for _, a := range tr.atoms {
		nargs += int(a.hi - a.lo)
	}
	atoms := make([]ir.Atom, 0, len(tr.atoms))
	terms := make([]ir.Term, nargs)
	for p := int32(0); p < int32(partAgg+2*len(tr.aggs)); p++ {
		for _, a := range tr.atoms {
			if a.part != p {
				continue
			}
			n := a.hi - a.lo
			args := terms[:n:n]
			terms = terms[n:]
			for j, v := range tr.args[a.lo:a.hi] {
				args[j] = tr.resolve(v)
			}
			atoms = append(atoms, ir.Atom{Rel: a.rel, Args: args})
		}
		tr.ends = append(tr.ends, len(atoms))
	}
	return atoms
}

// part returns part p of the atoms build materialised.
func (tr *translator) part(atoms []ir.Atom, p int) []ir.Atom {
	lo, hi := 0, tr.ends[p]
	if p > 0 {
		lo = tr.ends[p-1]
	}
	return atoms[lo:hi:hi]
}

// resolve maps a node to its output term.
func (tr *translator) resolve(i int32) ir.Term {
	r := &tr.nodes[tr.find(i)]
	if r.konst >= 0 {
		return ir.Const(tr.nodes[r.konst].text)
	}
	return ir.Var(tr.nodes[r.rep].text)
}

// appendName appends variable node i's name: outer names as written,
// fresh variables as _<column><n>.
func (tr *translator) appendName(dst []byte, i int32) []byte {
	n := &tr.nodes[i]
	if n.kind == nodeNamed {
		return append(dst, n.text...)
	}
	dst = append(dst, '_')
	dst = append(dst, n.text...)
	return strconv.AppendInt(dst, int64(n.num), 10)
}

// nameLess orders variable nodes by name without building strings.
func (tr *translator) nameLess(a, b int32) bool {
	var bufA, bufB [64]byte
	return bytes.Compare(tr.appendName(bufA[:0], a), tr.appendName(bufB[:0], b)) < 0
}

// isRep reports whether variable node i represents its class.
func (tr *translator) isRep(i int32) bool {
	r := &tr.nodes[tr.find(i)]
	return r.konst < 0 && r.rep == i
}

// nameFreshReps gives each fresh variable that represents its class a
// name, stored in its text (and the node becomes a named one). A name that
// another representative already carries (an outer name spelled like a
// generated one, or two generated names such as _a11 for column a and for
// column a1) gets a numeric suffix, so distinct classes never share a
// variable.
func (tr *translator) nameFreshReps() {
	var buf [64]byte
	for i := range tr.nodes {
		if tr.nodes[i].kind != nodeFresh || !tr.isRep(int32(i)) {
			continue
		}
		name := tr.appendName(buf[:0], int32(i))
		base := len(name)
		for k := 1; tr.repNamed(name, int32(i)); k++ {
			name = append(name[:base], '_')
			name = strconv.AppendInt(name, int64(k), 10)
		}
		tr.nodes[i].text, tr.nodes[i].kind = string(name), nodeNamed
	}
}

// repNamed reports whether a representative other than skip carries name.
// Fresh representatives not yet named are compared by their generated
// names.
func (tr *translator) repNamed(name []byte, skip int32) bool {
	var buf [64]byte
	for i := range tr.nodes {
		if int32(i) == skip || tr.nodes[i].kind == nodeConst || !tr.isRep(int32(i)) {
			continue
		}
		if bytes.Equal(tr.appendName(buf[:0], int32(i)), name) {
			return true
		}
	}
	return false
}

// resolveOuter maps an expression at the outer scope: literals become
// constants, bare identifiers become shared outer variables. Qualified
// references are invalid outside a subquery.
func (tr *translator) resolveOuter(e Expr) (int32, error) {
	if e.IsLit {
		return tr.newNode(nodeConst, e.Lit), nil
	}
	if e.Qualifier != "" {
		return 0, fmt.Errorf("eqsql: qualified reference %s is only valid inside a subquery", e)
	}
	return tr.outerVar(e.Name), nil
}

func (tr *translator) condition(c Condition) error {
	switch c := c.(type) {
	case *InAnswer:
		lo := len(tr.args)
		for _, e := range c.Tuple {
			t, err := tr.resolveOuter(e)
			if err != nil {
				return err
			}
			tr.args = append(tr.args, t)
		}
		tr.addAtom(c.Table, lo, partPost)
		return nil
	case *InSubquery:
		left, err := tr.resolveOuter(c.Left)
		if err != nil {
			return err
		}
		colVar, err := tr.instantiateSubquery(c.Sub)
		if err != nil {
			return err
		}
		if err := tr.union(left, colVar); err != nil {
			return fmt.Errorf("eqsql: contradictory constraints on %s: %w", c.Left, err)
		}
		return nil
	case *Compare:
		if c.Op != "=" {
			return fmt.Errorf("eqsql: comparison operator %q is not part of the core language (only =)", c.Op)
		}
		l, err := tr.resolveOuter(c.Left)
		if err != nil {
			return err
		}
		r, err := tr.resolveOuter(c.Right)
		if err != nil {
			return err
		}
		if err := tr.union(l, r); err != nil {
			return fmt.Errorf("eqsql: contradictory equality %s = %s: %w", c.Left, c.Right, err)
		}
		return nil
	case *AggCompare:
		if !tr.opt.AllowExtensions {
			return fmt.Errorf("eqsql: aggregation conditions require the extensions option (Section 6)")
		}
		return tr.aggregation(c)
	default:
		return fmt.Errorf("eqsql: unsupported condition %T", c)
	}
}

// instantiateSubquery records body atoms for the subquery's FROM list with
// fresh variables, applies its WHERE conditions, and returns the node of
// the selected column.
func (tr *translator) instantiateSubquery(sub *Subquery) (int32, error) {
	if err := tr.instantiateFrom(sub.From, -1, partBody); err != nil {
		return 0, err
	}
	for _, c := range sub.Where {
		cmp, ok := c.(*Compare)
		if !ok {
			return 0, fmt.Errorf("eqsql: subquery WHERE supports only comparisons, got %T", c)
		}
		if cmp.Op != "=" {
			return 0, fmt.Errorf("eqsql: subquery comparison %q unsupported (only =)", cmp.Op)
		}
		l, err := tr.resolveIn(cmp.Left)
		if err != nil {
			return 0, err
		}
		r, err := tr.resolveIn(cmp.Right)
		if err != nil {
			return 0, err
		}
		if err := tr.union(l, r); err != nil {
			return 0, fmt.Errorf("eqsql: contradictory subquery condition %s = %s: %w", cmp.Left, cmp.Right, err)
		}
	}
	return tr.resolveIn(sub.Col)
}

// instantiateFrom records one atom per FROM item with fresh variables and
// makes the items' columns the current scope, tr.env. Database items
// record into bodyPart. ANSWER items, allowed when answerPart >= 0, consult
// AnswerSchemas instead of the database schema and record into answerPart.
func (tr *translator) instantiateFrom(items []FromItem, answerPart, bodyPart int32) error {
	tr.env = tr.env[:0]
	for _, item := range items {
		var cols []string
		part := bodyPart
		if item.IsAnswer {
			if answerPart < 0 {
				return fmt.Errorf("eqsql: ANSWER relation %s not allowed here", item.Table)
			}
			var ok bool
			cols, ok = tr.opt.AnswerSchemas[item.Table]
			if !ok {
				return fmt.Errorf("eqsql: no declared schema for ANSWER relation %s", item.Table)
			}
			part = answerPart
		} else {
			var err error
			cols, err = tr.schema.Columns(item.Table)
			if err != nil {
				return err
			}
		}
		ref := item.ref()
		lo := len(tr.args)
		for _, col := range cols {
			v := tr.freshVar(col)
			tr.args = append(tr.args, v)
			tr.env = append(tr.env, colEntry{ref: ref, col: col, node: v})
		}
		tr.addAtom(item.Table, lo, part)
	}
	return nil
}

// resolveIn maps an expression within the current subquery scope;
// unqualified names try the FROM columns first and fall back to the outer
// scope (correlated references like the paper's `party_id = A.pid`).
func (tr *translator) resolveIn(e Expr) (int32, error) {
	if e.IsLit {
		return tr.newNode(nodeConst, e.Lit), nil
	}
	if e.Qualifier != "" {
		// A reference repeated in the FROM list denotes its last item.
		for i := len(tr.env) - 1; i >= 0; i-- {
			if c := &tr.env[i]; c.ref == e.Qualifier && c.col == e.Name {
				return c.node, nil
			}
		}
		return 0, fmt.Errorf("eqsql: unknown column reference %s", e)
	}
	// A name shared by several FROM items denotes the same value in every
	// occurrence: unify all candidates (implicit natural join on the
	// referenced column, as the paper's Jerry query relies on).
	first := int32(-1)
	for _, c := range tr.env {
		if c.col != e.Name {
			continue
		}
		if first < 0 {
			first = c.node
			continue
		}
		if err := tr.union(first, c.node); err != nil {
			return 0, fmt.Errorf("eqsql: contradictory shared column %s: %w", e.Name, err)
		}
	}
	if first >= 0 {
		return first, nil
	}
	// Correlated reference to the outer scope.
	v := tr.outerVar(e.Name)
	tr.nodes[v].correlated = true
	return v, nil
}

func (tr *translator) aggregation(c *AggCompare) error {
	bound, err := strconv.Atoi(c.Bound)
	if err != nil {
		return fmt.Errorf("eqsql: invalid aggregation bound %q", c.Bound)
	}
	answerPart := int32(partAgg + 2*len(tr.aggs))
	natoms := len(tr.atoms)
	if err := tr.instantiateFrom(c.Sub.From, answerPart, answerPart+1); err != nil {
		return err
	}
	hasAnswer := false
	for _, a := range tr.atoms[natoms:] {
		hasAnswer = hasAnswer || a.part == answerPart
	}
	if !hasAnswer {
		return fmt.Errorf("eqsql: aggregation subquery must reference at least one ANSWER relation")
	}
	for _, cond := range c.Sub.Where {
		cmp, ok := cond.(*Compare)
		if !ok || cmp.Op != "=" {
			return fmt.Errorf("eqsql: aggregation WHERE supports only equality comparisons")
		}
		l, err := tr.resolveIn(cmp.Left)
		if err != nil {
			return err
		}
		r, err := tr.resolveIn(cmp.Right)
		if err != nil {
			return err
		}
		if err := tr.union(l, r); err != nil {
			return fmt.Errorf("eqsql: contradictory aggregation condition: %w", err)
		}
	}
	tr.aggs = append(tr.aggs, AggConstraint{Op: c.Op, Bound: bound})
	return nil
}
