package eqsql

import (
	"errors"
	"reflect"
	"testing"

	"entangle/internal/ir"
)

// FuzzParseSQL throws arbitrary bytes at the entangled-SQL front end —
// lexer, parser and translator — over a small fixed schema. The contract
// under fuzzing: never panic; every failure is either a *ir.ParseError
// (errors.As) with a byte offset inside the input, or an offset-free
// translation error; successful translations yield queries that Validate
// accepts. Round trip: every statement ParseStatement accepts formats to
// text that parses back to an equal statement, which translates to the
// same query (or fails with the same error).
func FuzzParseSQL(f *testing.F) {
	schema := MapSchema{
		"Flights": {"fno", "dest"},
		"Friends": {"a", "b"},
		"R":       {"who", "fno"},
		"F":       {"u1", "u2"},
		"U":       {"u", "city"},
	}
	for _, seed := range []string{
		`SELECT 'Kramer', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND ('Jerry', fno) IN ANSWER R CHOOSE 1`,
		`SELECT 'Jerry', fno INTO ANSWER R WHERE ('Kramer', fno) IN ANSWER R CHOOSE 1`,
		`SELECT a, b FROM Friends`,
		`SELECT x INTO ANSWER R CHOOSE 2`,
		`SELECT`,
		`SELECT 'a' INTO ANSWER`,
		`sele ct ' unterminated`,
		``,
		pairSQL,
		`SELECT 'O''Brien', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'it''s') CHOOSE 1`,
		`SELECT 'Zoë', größe INTO ANSWER R WHERE größe IN (SELECT fno FROM Flights) CHOOSE 1`,
		"-- Kramer's plan\nSELECT 'K', fno INTO ANSWER R -- any flight\nWHERE fno IN (SELECT fno FROM Flights) CHOOSE 1",
	} {
		f.Add(seed)
	}
	opt := Options{AllowExtensions: true, AnswerSchemas: map[string][]string{"R": {"who", "fno"}}}
	f.Fuzz(func(t *testing.T, src string) {
		checkFormatRoundTrip(t, src, schema, opt)
		tr, err := Parse(0, src, schema, opt)
		if err != nil {
			var pe *ir.ParseError
			if errors.As(err, &pe) {
				if pe.Offset < 0 || pe.Offset > len(src) {
					t.Fatalf("ParseError offset %d outside input of %d bytes: %q", pe.Offset, len(src), src)
				}
			}
			return
		}
		if tr.Query == nil {
			t.Fatalf("Parse accepted %q but returned no query", src)
		}
		if err := tr.Query.Validate(); err != nil {
			t.Fatalf("Parse accepted %q but Validate rejects the translation: %v", src, err)
		}
	})
}

// checkFormatRoundTrip asserts the Format round trip for src, if it parses.
func checkFormatRoundTrip(t *testing.T, src string, schema Schema, opt Options) {
	stmt, err := ParseStatement(src)
	if err != nil {
		return
	}
	text := Format(stmt)
	stmt2, err := ParseStatement(text)
	if err != nil {
		t.Fatalf("Format(%q) = %q does not parse: %v", src, text, err)
	}
	if !reflect.DeepEqual(stmt, stmt2) {
		t.Fatalf("round trip changed the statement:\nsource:    %q\nformatted: %q", src, text)
	}
	tr1, err1 := Translate(0, stmt, schema, opt)
	tr2, err2 := Translate(0, stmt2, schema, opt)
	if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
		t.Fatalf("round trip changed the translation error for %q: %v vs %v", src, err1, err2)
	}
	if err1 == nil && tr1.Query.String() != tr2.Query.String() {
		t.Fatalf("round trip changed the query for %q:\n%s\n%s", src, tr1.Query, tr2.Query)
	}
}
