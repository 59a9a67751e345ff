// Package eqsql parses the entangled-SQL surface syntax of Section 2.1:
//
//	SELECT select_expr
//	INTO ANSWER tbl_name [, ANSWER tbl_name] ...
//	[WHERE where_answer_condition]
//	CHOOSE 1
//
// and translates parsed statements into the intermediate representation of
// internal/ir. The WHERE clause supports the constructs used throughout the
// paper: conjunctions of `expr IN (SELECT col FROM tables WHERE …)`
// subqueries over database relations, `(expr, …) IN ANSWER tbl` coordination
// constraints, plain equalities, and — for the Section 6 extension — scalar
// COUNT subqueries over ANSWER relations compared against a threshold.
//
// Every SQL submission to a d3cd server passes through Parse, so the front
// end is built to allocate little beyond the AST and the output query.
//
// The lexer tokenises the whole input up front into a token slice sized
// once from the input length. It scans bytes, taking an ASCII fast path and
// falling back to utf8/unicode only for non-ASCII runes (with the same
// token boundaries either way). Identifiers, numbers, punctuation and
// string literals are substrings of the input; only a literal with a
// doubled quote (or invalid UTF-8, which decodes to U+FFFD) is copied.
//
// The translator keeps one statement's terms in a slice of nodes: a node
// per outer name, per constant occurrence and per FROM column (a fresh
// variable). Equalities are merged by a union-find over that slice with at
// most one constant per class — the mgu of internal/unify, ErrClash
// included. A FROM scope is a small slice of (reference, column, node)
// entries searched linearly. Atoms are recorded as node ranges and
// materialised once at the end into one term array shared, through
// three-index slices, by every output atom: each node resolves to its
// class constant or to the class's least variable name, and a fresh
// variable gets its name (`_<column><n>`) only if it is that
// representative.
package eqsql

import (
	"fmt"
	"unicode"
	"unicode/utf8"

	"entangle/internal/ir"
)

// tokenKind enumerates lexical token categories.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString // single-quoted literal
	tokNumber
	tokPunct // ( ) , . = > < *
)

type token struct {
	text string
	pos  int // byte offset in the input, for error messages
	kind tokenKind
}

// lex tokenises the whole input up front; entangled queries are short, so
// one pass keeps the parser simple. A token averages about four input
// bytes in the paper's statements (spaces included), which sizes the slice.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/4+4)
	pos := 0
	for {
		pos = skipSpaceAndComments(src, pos)
		if pos >= len(src) {
			return append(toks, token{kind: tokEOF, pos: pos}), nil
		}
		start := pos
		c := src[pos]
		r := rune(c)
		if c >= utf8.RuneSelf {
			r, _ = utf8.DecodeRuneInString(src[pos:])
		}
		switch {
		case c == '\'':
			s, end, err := lexString(src, pos)
			if err != nil {
				return nil, err
			}
			pos = end
			toks = append(toks, token{kind: tokString, text: s, pos: start})
		case isDigit(c, r):
			pos = scanWhile(src, pos, isNumberByte, isNumberRune)
			toks = append(toks, token{kind: tokNumber, text: src[start:pos], pos: start})
		case isLetter(c, r):
			pos = scanWhile(src, pos, isWordByte, isWordRune)
			toks = append(toks, token{kind: tokIdent, text: src[start:pos], pos: start})
		case isPunct(c):
			pos++
			toks = append(toks, token{kind: tokPunct, text: src[start:pos], pos: start})
		default:
			return nil, &ir.ParseError{Offset: pos, Msg: fmt.Sprintf("eqsql: unexpected character %q", r)}
		}
	}
}

// skipSpaceAndComments returns the offset of the first byte at or after
// pos that is neither white space nor inside a `--` line comment.
func skipSpaceAndComments(src string, pos int) int {
	for pos < len(src) {
		c := src[pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			pos++
		case c == '-' && pos+1 < len(src) && src[pos+1] == '-':
			// SQL line comment.
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(src[pos:])
			if !unicode.IsSpace(r) {
				return pos
			}
			pos += size
		default:
			return pos
		}
	}
	return pos
}

// scanWhile advances from pos over the bytes (ASCII) and runes (otherwise)
// the predicates accept.
func scanWhile(src string, pos int, byteOK func(byte) bool, runeOK func(rune) bool) int {
	for pos < len(src) {
		c := src[pos]
		if c < utf8.RuneSelf {
			if !byteOK(c) {
				break
			}
			pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(src[pos:])
		if !runeOK(r) {
			break
		}
		pos += size
	}
	return pos
}

// lexString reads the literal whose opening quote is at pos and returns
// its value and the offset just past its closing quote. The value is a
// substring of src unless the literal holds a doubled quote or invalid
// UTF-8 (decoded as U+FFFD), which need a copy.
func lexString(src string, pos int) (string, int, error) {
	start := pos + 1
	copyNeeded := false
	for i := start; i < len(src); i++ {
		switch c := src[i]; {
		case c == '\'':
			if i+1 < len(src) && src[i+1] == '\'' {
				copyNeeded = true
				i++
				continue
			}
			if copyNeeded {
				return unquote(src[start:i]), i + 1, nil
			}
			return src[start:i], i + 1, nil
		case c >= utf8.RuneSelf && !copyNeeded:
			r, size := utf8.DecodeRuneInString(src[i:])
			if r == utf8.RuneError && size == 1 {
				copyNeeded = true
			}
			i += size - 1
		}
	}
	return "", 0, &ir.ParseError{Offset: len(src), Msg: "eqsql: unterminated string literal"}
}

// unquote builds a literal's value from the text between its quotes:
// doubled quotes collapse to one and invalid bytes decode to U+FFFD.
func unquote(body string) string {
	b := make([]byte, 0, len(body))
	for i := 0; i < len(body); {
		r, size := utf8.DecodeRuneInString(body[i:])
		i += size
		if r == '\'' {
			i++ // the second quote of the pair
		}
		b = utf8.AppendRune(b, r)
	}
	return string(b)
}

func isDigit(c byte, r rune) bool {
	if c < utf8.RuneSelf {
		return '0' <= c && c <= '9'
	}
	return unicode.IsDigit(r)
}

func isLetter(c byte, r rune) bool {
	if c < utf8.RuneSelf {
		return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
	}
	return unicode.IsLetter(r)
}

func isPunct(c byte) bool {
	switch c {
	case '(', ')', ',', '.', '=', '>', '<', '*':
		return true
	}
	return false
}

func isWordByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_'
}

func isNumberByte(c byte) bool { return '0' <= c && c <= '9' || c == '.' }

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func isNumberRune(r rune) bool {
	return unicode.IsDigit(r) || r == '.'
}
