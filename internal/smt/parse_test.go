package smt

import (
	"errors"
	"testing"

	"lisa/internal/minij"
)

// TestParseErrorsArePositioned: each syntax error ParsePredicate reports
// is a *ParseError at the offending token, with the same text the
// formatted errors had; a lexical error stays a wrapped *minij.LexError.
func TestParseErrorsArePositioned(t *testing.T) {
	for _, c := range []struct {
		src, want string
		pos       minij.Pos
	}{
		{"a b", `smt: 1:3: trailing input "b"`, minij.Pos{Line: 1, Col: 3}},
		{"(a && b", `smt: 1:8: expected ")"`, minij.Pos{Line: 1, Col: 8}},
		{"x == -y", `smt: 1:7: expected integer after "-"`, minij.Pos{Line: 1, Col: 7}},
		{"x < null", `smt: 1:3: null supports only == and !=`, minij.Pos{Line: 1, Col: 3}},
		{"x < true", `smt: 1:3: booleans support only == and !=`, minij.Pos{Line: 1, Col: 3}},
		{`x < "s"`, `smt: 1:3: strings support only == and !=`, minij.Pos{Line: 1, Col: 3}},
		{"x == ;", `smt: 1:6: expected operand, found ";"`, minij.Pos{Line: 1, Col: 6}},
		{"3 == x", `smt: 1:1: expected path, found "3"`, minij.Pos{Line: 1, Col: 1}},
		{"a.3", `smt: 1:3: expected identifier after "."`, minij.Pos{Line: 1, Col: 3}},
	} {
		_, err := ParsePredicate(c.src)
		var perr *ParseError
		if !errors.As(err, &perr) || perr.Pos != c.pos || err.Error() != c.want {
			t.Errorf("%q: error %v, want a ParseError at %s reading %q", c.src, err, c.pos, c.want)
		}
	}
	_, err := ParsePredicate(`a == "open`)
	var lerr *minij.LexError
	if !errors.As(err, &lerr) || err.Error() != "smt: 1:6: unterminated string literal" {
		t.Errorf("lexical error %v, want the wrapped LexError", err)
	}
}
