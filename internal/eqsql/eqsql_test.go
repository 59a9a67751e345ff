package eqsql

import (
	"strings"
	"testing"

	"entangle/internal/ir"
	"entangle/internal/match"
	"entangle/internal/memdb"
)

// paper statements from the introduction.
const kramerSQL = `
SELECT 'Kramer', fno INTO ANSWER Reservation
WHERE
fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND ('Jerry', fno) IN ANSWER Reservation
CHOOSE 1`

const jerrySQL = `
SELECT 'Jerry', fno INTO ANSWER Reservation
WHERE
fno IN (SELECT fno FROM Flights F, Airlines A WHERE
        F.dest='Paris' AND F.fno = A.fno
        AND A.airline = 'United')
AND ('Kramer', fno) IN ANSWER Reservation
CHOOSE 1`

func testSchema() Schema {
	return MapSchema{
		"Flights":  {"fno", "dest"},
		"Airlines": {"fno", "airline"},
		"Parties":  {"pid", "pdate"},
		"Friend":   {"name1", "name2"},
	}
}

func TestParseKramer(t *testing.T) {
	stmt, err := ParseStatement(kramerSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 2 || !stmt.Items[0].IsLit || stmt.Items[0].Lit != "Kramer" {
		t.Fatalf("items = %v", stmt.Items)
	}
	if len(stmt.Into) != 1 || stmt.Into[0] != "Reservation" {
		t.Fatalf("into = %v", stmt.Into)
	}
	if len(stmt.Where) != 2 {
		t.Fatalf("where = %v", stmt.Where)
	}
	if stmt.Choose != 1 {
		t.Fatalf("choose = %d", stmt.Choose)
	}
	if _, ok := stmt.Where[0].(*InSubquery); !ok {
		t.Fatalf("first condition should be IN subquery, got %T", stmt.Where[0])
	}
	ia, ok := stmt.Where[1].(*InAnswer)
	if !ok || ia.Table != "Reservation" || len(ia.Tuple) != 2 {
		t.Fatalf("second condition = %#v", stmt.Where[1])
	}
}

func TestTranslateKramer(t *testing.T) {
	tr, err := Parse(1, kramerSQL, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.Query
	if len(q.Heads) != 1 || len(q.Posts) != 1 || len(q.Body) != 1 {
		t.Fatalf("query = %s", q)
	}
	h := q.Heads[0]
	if h.Rel != "Reservation" || !h.Args[0].Equal(ir.Const("Kramer")) || !h.Args[1].IsVar() {
		t.Fatalf("head = %v", h)
	}
	p := q.Posts[0]
	if p.Rel != "Reservation" || !p.Args[0].Equal(ir.Const("Jerry")) {
		t.Fatalf("post = %v", p)
	}
	// Head, post and body share the flight-number variable.
	if !h.Args[1].Equal(p.Args[1]) {
		t.Fatalf("head var %v != post var %v", h.Args[1], p.Args[1])
	}
	b := q.Body[0]
	if b.Rel != "Flights" || !b.Args[0].Equal(h.Args[1]) || !b.Args[1].Equal(ir.Const("Paris")) {
		t.Fatalf("body = %v", b)
	}
}

func TestTranslateJerryJoin(t *testing.T) {
	tr, err := Parse(2, jerrySQL, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.Query
	if len(q.Body) != 2 {
		t.Fatalf("body = %v", q.Body)
	}
	// The F.fno = A.fno join and the outer fno all collapse onto one var.
	var flights, airlines ir.Atom
	for _, a := range q.Body {
		switch a.Rel {
		case "Flights":
			flights = a
		case "Airlines":
			airlines = a
		}
	}
	if !flights.Args[0].Equal(airlines.Args[0]) {
		t.Fatalf("join variable not shared: %v vs %v", flights, airlines)
	}
	if !airlines.Args[1].Equal(ir.Const("United")) {
		t.Fatalf("airline constant missing: %v", airlines)
	}
	if !q.Heads[0].Args[1].Equal(flights.Args[0]) {
		t.Fatalf("head var differs from body var")
	}
}

func TestEndToEndSQLCoordination(t *testing.T) {
	// Full pipeline: SQL → IR → Coordinate, reproducing Figure 1 (b).
	db := memdb.New()
	db.MustCreateTable("Flights", "fno", "dest")
	db.MustCreateTable("Airlines", "fno", "airline")
	for _, r := range [][]string{{"122", "Paris"}, {"123", "Paris"}, {"134", "Paris"}, {"136", "Rome"}} {
		db.MustInsert("Flights", r...)
	}
	for _, r := range [][]string{{"122", "United"}, {"123", "United"}, {"134", "Lufthansa"}, {"136", "Alitalia"}} {
		db.MustInsert("Airlines", r...)
	}
	schema := DBSchema{DB: db}
	kr, err := Parse(1, kramerSQL, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	je, err := Parse(2, jerrySQL, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := match.Coordinate(db, []*ir.Query{kr.Query, je.Query}, match.CoordinateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Answers) != 2 {
		t.Fatalf("answers = %v rejected = %v", out.Answers, out.Rejected)
	}
	fk := out.Answers[1].Tuples[0].Args[1].Value
	fj := out.Answers[2].Tuples[0].Args[1].Value
	if fk != fj || (fk != "122" && fk != "123") {
		t.Fatalf("coordination failed: Kramer %s Jerry %s", fk, fj)
	}
}

func TestTranslateAggregation(t *testing.T) {
	// The Section 6 aggregation example.
	src := `
SELECT party_id, 'Jerry' INTO ANSWER Attendance
WHERE
party_id IN (SELECT pid FROM Parties WHERE pdate='Friday')
AND
(SELECT COUNT(*) FROM ANSWER Attendance A, Friend F
 WHERE party_id = A.pid AND A.name = F.name2 AND F.name1 = 'Jerry') > 5
CHOOSE 1`
	opt := Options{
		AllowExtensions: true,
		AnswerSchemas:   map[string][]string{"Attendance": {"pid", "name"}},
	}
	tr, err := Parse(3, src, testSchema(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Aggregates) != 1 {
		t.Fatalf("aggregates = %v", tr.Aggregates)
	}
	agg := tr.Aggregates[0]
	if agg.Op != ">" || agg.Bound != 5 {
		t.Fatalf("agg op/bound = %s %d", agg.Op, agg.Bound)
	}
	if len(agg.AnswerAtoms) != 1 || agg.AnswerAtoms[0].Rel != "Attendance" {
		t.Fatalf("answer atoms = %v", agg.AnswerAtoms)
	}
	if len(agg.BodyAtoms) != 1 || agg.BodyAtoms[0].Rel != "Friend" {
		t.Fatalf("body atoms = %v", agg.BodyAtoms)
	}
	// The correlated reference: A.pid must share the head's party variable.
	if !agg.AnswerAtoms[0].Args[0].Equal(tr.Query.Heads[0].Args[0]) {
		t.Fatalf("correlation broken: %v vs head %v", agg.AnswerAtoms[0], tr.Query.Heads[0])
	}
	// F.name1 = 'Jerry' became a constant.
	if !agg.BodyAtoms[0].Args[0].Equal(ir.Const("Jerry")) {
		t.Fatalf("Friend atom = %v", agg.BodyAtoms[0])
	}
}

func TestAggregationRequiresExtensions(t *testing.T) {
	src := `
SELECT p, 'J' INTO ANSWER A
WHERE p IN (SELECT pid FROM Parties WHERE pdate='Friday')
AND (SELECT COUNT(*) FROM ANSWER A WHERE p = x) > 5
CHOOSE 1`
	_, err := Parse(1, src, testSchema(), Options{AnswerSchemas: map[string][]string{"A": {"pid", "n"}}})
	if err == nil || !strings.Contains(err.Error(), "extensions") {
		t.Fatalf("expected extensions error, got %v", err)
	}
}

func TestChooseKRequiresExtensions(t *testing.T) {
	src := `SELECT 'A', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') CHOOSE 3`
	if _, err := Parse(1, src, testSchema(), Options{}); err == nil {
		t.Fatal("CHOOSE 3 must require extensions")
	}
	tr, err := Parse(1, src, testSchema(), Options{AllowExtensions: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Query.Choose != 3 {
		t.Fatalf("choose = %d", tr.Query.Choose)
	}
}

func TestMultipleAnswerTables(t *testing.T) {
	src := `SELECT 'K', fno INTO ANSWER R, ANSWER S
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')`
	tr, err := Parse(1, src, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Query.Heads) != 2 || tr.Query.Heads[0].Rel != "R" || tr.Query.Heads[1].Rel != "S" {
		t.Fatalf("heads = %v", tr.Query.Heads)
	}
}

func TestOuterEquality(t *testing.T) {
	src := `SELECT 'K', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND fno = '122'`
	tr, err := Parse(1, src, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// fno collapses to the constant 122 everywhere.
	if !tr.Query.Heads[0].Args[1].Equal(ir.Const("122")) {
		t.Fatalf("head = %v", tr.Query.Heads[0])
	}
	if !tr.Query.Body[0].Args[0].Equal(ir.Const("122")) {
		t.Fatalf("body = %v", tr.Query.Body[0])
	}
}

func TestContradictoryEquality(t *testing.T) {
	src := `SELECT 'K', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND fno = '122' AND fno = '123'`
	if _, err := Parse(1, src, testSchema(), Options{}); err == nil {
		t.Fatal("contradictory equalities must fail")
	}
}

func TestSingleValueInAnswerShorthand(t *testing.T) {
	src := `SELECT fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND fno IN ANSWER S`
	tr, err := Parse(1, src, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Query.Posts) != 1 || tr.Query.Posts[0].Rel != "S" || len(tr.Query.Posts[0].Args) != 1 {
		t.Fatalf("posts = %v", tr.Query.Posts)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"missing select":    `INTO ANSWER R`,
		"missing into":      `SELECT 'a' WHERE x IN (SELECT fno FROM Flights)`,
		"missing answer kw": `SELECT 'a' INTO R`,
		"bad choose":        `SELECT 'a' INTO ANSWER R CHOOSE zero`,
		"unterminated str":  `SELECT 'a INTO ANSWER R`,
		"trailing garbage":  `SELECT 'a' INTO ANSWER R CHOOSE 1 garbage`,
		"lit subquery col":  `SELECT 'a' INTO ANSWER R WHERE x IN (SELECT 'l' FROM Flights)`,
		"empty":             ``,
		"reserved as expr":  `SELECT SELECT INTO ANSWER R`,
	}
	for name, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("%s: ParseStatement(%q) should fail", name, src)
		}
	}
}

func TestTranslateErrors(t *testing.T) {
	cases := map[string]string{
		"unknown table": `SELECT 'a', x INTO ANSWER R
			WHERE x IN (SELECT c FROM Nonexistent)`,
		"unknown column": `SELECT 'a', x INTO ANSWER R
			WHERE x IN (SELECT bogus.col FROM Flights)`,
		"inequality": `SELECT 'a', x INTO ANSWER R
			WHERE x IN (SELECT fno FROM Flights) AND x > '5'`,
		"unbound head var": `SELECT 'a', nowhere INTO ANSWER R
			WHERE x IN (SELECT fno FROM Flights)`,
	}
	for name, src := range cases {
		if _, err := Parse(1, src, testSchema(), Options{}); err == nil {
			t.Errorf("%s: Parse(%q) should fail", name, src)
		}
	}
}

func TestCommentsAndCase(t *testing.T) {
	src := `-- Kramer's travel plan
select 'Kramer', fno into answer R
where fno in (select fno from Flights where dest='Paris') -- only Paris
and ('Jerry', fno) in answer R
choose 1`
	tr, err := Parse(1, src, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Query.Posts) != 1 {
		t.Fatalf("posts = %v", tr.Query.Posts)
	}
}

func TestExprString(t *testing.T) {
	for e, want := range map[Expr]string{
		{IsLit: true, Lit: "it's"}:    "'it''s'",
		{Name: "fno"}:                 "fno",
		{Qualifier: "F", Name: "fno"}: "F.fno",
	} {
		if got := e.String(); got != want {
			t.Errorf("Expr.String = %q, want %q", got, want)
		}
	}
}

func TestUnknownSubqueryColumn(t *testing.T) {
	// dst is a misspelling of dest: resolved as an outer name that occurs
	// nowhere else, it would leave Flights unfiltered and book any flight.
	misspelled := `SELECT 'Kramer', fno INTO ANSWER Reservation
WHERE fno IN (SELECT fno FROM Flights WHERE dst='Paris')
AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1`
	_, err := Parse(1, misspelled, testSchema(), Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown column dst") {
		t.Fatalf("misspelled column: err = %v, want one naming dst", err)
	}
	// A misspelled selected column is caught the same way.
	_, err = Parse(1, `SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fnum FROM Flights)`, testSchema(), Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown column fnum") {
		t.Fatalf("misspelled selected column: err = %v, want one naming fnum", err)
	}

	for name, src := range map[string]string{
		// A correlated reference to a name the outer query also uses.
		"correlated": `SELECT 'K', fno, d INTO ANSWER R
WHERE d IN (SELECT pdate FROM Parties WHERE pid = 'p1')
AND fno IN (SELECT fno FROM Flights WHERE dest = d)`,
		// A join variable shared by two subqueries and nothing else.
		"shared join": pairSQL,
		// A name used twice inside one subquery joins its columns.
		"twice in one subquery": `SELECT 'K', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights F, Airlines A WHERE F.dest = j AND A.airline = j)`,
	} {
		schema := MapSchema{
			"Flights": {"fno", "dest"}, "Airlines": {"fno", "airline"},
			"Parties": {"pid", "pdate"}, "F": {"u1", "u2"}, "U": {"u", "city"},
		}
		if _, err := Parse(1, src, schema, Options{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGeneratedNameCollision(t *testing.T) {
	// Flights' columns get the variables _fno1 and _dest2, Airlines' _fno3
	// and _airline4. The user's outer name _fno1 is another variable: it
	// must neither join Flights.fno to Airlines.fno nor share a name with
	// Flights.fno in the output.
	src := `SELECT 'K', _fno1, x INTO ANSWER R
WHERE x IN (SELECT dest FROM Flights) AND _fno1 IN (SELECT fno FROM Airlines)`
	tr, err := Parse(1, src, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.Query
	flights, airlines := q.Body[0], q.Body[1]
	if flights.Args[0].Equal(airlines.Args[0]) || flights.Args[0].Equal(q.Heads[0].Args[1]) {
		t.Fatalf("Flights.fno joined to the outer _fno1: %s", q)
	}
	if !airlines.Args[0].Equal(q.Heads[0].Args[1]) || !flights.Args[1].Equal(q.Heads[0].Args[2]) {
		t.Fatalf("head not bound through the body: %s", q)
	}
}
