package eqsql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"entangle/internal/ir"
)

// ParseStatement parses one entangled-SQL SELECT statement.
func ParseStatement(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("trailing input after statement")
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errorf(format string, args ...interface{}) error {
	return &ir.ParseError{Offset: p.cur().pos, Msg: "eqsql: " + fmt.Sprintf(format, args...)}
}

// keyword reports whether the current token is the given keyword
// (case-insensitive) and consumes it if so.
func (p *parser) keyword(kw string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.i++
		return true
	}
	return false
}

// peekKeyword reports whether the current token is the keyword without
// consuming it.
func (p *parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *parser) punct(s string) bool {
	t := p.cur()
	if t.kind == tokPunct && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.punct(s) {
		return p.errorf("expected %q", s)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, got %q", t.text)
	}
	p.i++
	return t.text, nil
}

// reserved keywords that terminate expression lists.
var reserved = [...]string{"INTO", "WHERE", "CHOOSE", "AND", "FROM", "IN", "ANSWER", "SELECT", "COUNT"}

// isReserved reports whether word is a reserved keyword in any letter case.
func isReserved(word string) bool {
	for i := 0; i < len(word); i++ {
		if word[i] >= utf8.RuneSelf {
			// Upper-casing maps some non-ASCII letters onto ASCII ones
			// (ı → I, ſ → S), so such a word is compared upper-cased.
			word = strings.ToUpper(word)
			break
		}
	}
	for _, kw := range reserved {
		if len(word) == len(kw) && strings.EqualFold(word, kw) {
			return true
		}
	}
	return false
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Choose: 1}
	items, err := p.parseExprList()
	if err != nil {
		return nil, err
	}
	stmt.Items = items
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	var intoBuf [4]string
	into := intoBuf[:0]
	for {
		if err := p.expectKeyword("ANSWER"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		into = append(into, name)
		if !p.punct(",") {
			break
		}
	}
	stmt.Into = make([]string, len(into))
	copy(stmt.Into, into)
	if p.keyword("WHERE") {
		conds, err := p.parseConditions()
		if err != nil {
			return nil, err
		}
		stmt.Where = conds
	}
	if p.keyword("CHOOSE") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, p.errorf("CHOOSE needs a number")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, p.errorf("invalid CHOOSE count %q", t.text)
		}
		p.i++
		stmt.Choose = n
	}
	return stmt, nil
}

// parseConditions parses an AND-separated list. The list collects in stack
// scratch and is copied out once at its exact length; parseExprList does
// the same for comma-separated expressions.
func (p *parser) parseConditions() ([]Condition, error) {
	var buf [8]Condition
	conds := buf[:0]
	for {
		c, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		conds = append(conds, c)
		if !p.keyword("AND") {
			out := make([]Condition, len(conds))
			copy(out, conds)
			return out, nil
		}
	}
}

// parseExprList parses `expr [, expr]…`.
func (p *parser) parseExprList() ([]Expr, error) {
	var buf [8]Expr
	exprs := buf[:0]
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		if !p.punct(",") {
			out := make([]Expr, len(exprs))
			copy(out, exprs)
			return out, nil
		}
	}
}

func (p *parser) parseCondition() (Condition, error) {
	// Tuple postcondition: ( expr, expr … ) IN ANSWER tbl
	// — or a parenthesised scalar / aggregation subquery comparison.
	if p.punct("(") {
		if p.peekKeyword("SELECT") {
			// (SELECT COUNT(*) …) op n — the aggregation extension.
			agg, err := p.parseAggSubquery()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			op := p.cur()
			if op.kind != tokPunct || (op.text != ">" && op.text != "<" && op.text != "=") {
				return nil, p.errorf("expected comparison operator after aggregation subquery")
			}
			p.i++
			bound := p.cur()
			if bound.kind != tokNumber {
				return nil, p.errorf("expected numeric bound after %s", op.text)
			}
			p.i++
			return &AggCompare{Sub: agg, Op: op.text, Bound: bound.text}, nil
		}
		tuple, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("IN"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ANSWER"); err != nil {
			return nil, err
		}
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &InAnswer{Tuple: tuple, Table: tbl}, nil
	}

	left, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.keyword("IN"):
		// expr IN (SELECT …) or expr IN ANSWER tbl (1-tuple shorthand).
		if p.keyword("ANSWER") {
			tbl, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &InAnswer{Tuple: []Expr{left}, Table: tbl}, nil
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		sub, err := p.parseSubquery()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &InSubquery{Left: left, Sub: sub}, nil
	case p.cur().kind == tokPunct && (p.cur().text == "=" || p.cur().text == ">" || p.cur().text == "<"):
		op := p.cur().text
		p.i++
		right, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Compare{Left: left, Op: op, Right: right}, nil
	default:
		return nil, p.errorf("expected IN or comparison after %s", left)
	}
}

func (p *parser) parseSubquery() (*Subquery, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	col, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if col.IsLit {
		return nil, p.errorf("subquery SELECT must name a column")
	}
	sub := &Subquery{Col: col}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	items, err := p.parseFromList(false)
	if err != nil {
		return nil, err
	}
	sub.From = items
	if p.keyword("WHERE") {
		conds, err := p.parseConditions()
		if err != nil {
			return nil, err
		}
		sub.Where = conds
	}
	return sub, nil
}

func (p *parser) parseAggSubquery() (*AggSubquery, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("COUNT"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if !p.punct("*") {
		return nil, p.errorf("only COUNT(*) is supported")
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	items, err := p.parseFromList(true)
	if err != nil {
		return nil, err
	}
	agg := &AggSubquery{From: items}
	if p.keyword("WHERE") {
		conds, err := p.parseConditions()
		if err != nil {
			return nil, err
		}
		agg.Where = conds
	}
	return agg, nil
}

// parseFromList parses `tbl [alias] [, tbl [alias]]…`, allowing the ANSWER
// prefix when answerOK is true.
func (p *parser) parseFromList(answerOK bool) ([]FromItem, error) {
	var buf [4]FromItem
	items := buf[:0]
	for {
		var item FromItem
		if p.peekKeyword("ANSWER") {
			if !answerOK {
				return nil, p.errorf("ANSWER relations are not allowed in this FROM clause")
			}
			p.keyword("ANSWER")
			item.IsAnswer = true
		}
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		item.Table = tbl
		// Optional alias: a following identifier that is not a keyword.
		if t := p.cur(); t.kind == tokIdent && !isReserved(t.text) {
			item.Alias = t.text
			p.i++
		}
		items = append(items, item)
		if !p.punct(",") {
			out := make([]FromItem, len(items))
			copy(out, items)
			return out, nil
		}
	}
}

// parseExpr parses a literal, number, or (qualified) identifier.
func (p *parser) parseExpr() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokString:
		p.i++
		return Expr{IsLit: true, Lit: t.text}, nil
	case tokNumber:
		p.i++
		return Expr{IsLit: true, Lit: t.text}, nil
	case tokIdent:
		if isReserved(t.text) {
			return Expr{}, p.errorf("unexpected keyword %q in expression", t.text)
		}
		p.i++
		if p.punct(".") {
			name, err := p.ident()
			if err != nil {
				return Expr{}, err
			}
			return Expr{Qualifier: t.text, Name: name}, nil
		}
		return Expr{Name: t.text}, nil
	default:
		return Expr{}, p.errorf("expected expression, got %q", t.text)
	}
}
