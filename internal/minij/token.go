// Package minij implements MiniJ, a small Java-like language used to model
// the cloud systems that LISA analyzes. The package provides a lexer, a
// recursive-descent parser, a typed AST with source positions, a
// pretty-printer that produces canonical statement text (used to match
// contract target statements), and a static resolver.
//
// MiniJ keeps exactly the constructs that the paper's failure cases depend
// on: classes with fields and (possibly static) methods, locals, if/while/for
// control flow, synchronized blocks, string-valued exceptions with try/catch,
// null, and builtin calls (some of which are flagged as blocking I/O).
package minij

import (
	"fmt"
	"strings"
)

// TokenKind enumerates the lexical token kinds of MiniJ.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokInt
	TokString
	TokPunct   // one of ( ) { } [ ] ; , .
	TokOp      // operator such as + - * / % ! = == != < <= > >= && ||
	TokKeyword // reserved word
)

var kindNames = map[TokenKind]string{
	TokEOF:     "EOF",
	TokIdent:   "identifier",
	TokInt:     "int literal",
	TokString:  "string literal",
	TokPunct:   "punctuation",
	TokOp:      "operator",
	TokKeyword: "keyword",
}

// String returns a human-readable name for the token kind.
func (k TokenKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Pos is a source position within a MiniJ compilation unit.
type Pos struct {
	Line int // 1-based line
	Col  int // 1-based column
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Before reports whether p appears strictly before q in the source.
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// Token is a single lexical token.
type Token struct {
	Kind TokenKind
	Text string
	Int  int64 // value when Kind == TokInt
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// keywords maps each reserved word to itself. The lexer looks a word up by
// its slice of the source and takes the map's copy as the token text,
// which owns its bytes and costs no intern.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, w := range strings.Fields(`class static void int bool string list map if else
		while for in return break continue throw try catch synchronized new null
		true false`) {
		m[w] = w
	}
	return m
}()
