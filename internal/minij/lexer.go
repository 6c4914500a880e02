package minij

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// LexError describes a lexical error with its source position.
type LexError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer splits MiniJ source text into tokens. The zero value is not usable;
// construct one with NewLexer.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	// names interns identifier and integer-literal texts: each distinct
	// text is copied out of the source once, and every later occurrence
	// shares that copy.
	names map[string]string
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokens is a two-token window over a MiniJ source: the current token and
// the one after it. Programs (Parse) and contract predicates
// (smt.ParsePredicate) are both parsed through it, so neither builds a
// token slice. Once the lexer fails, every later token is EOF, and Err
// returns the lexical error. Construct one with NewTokens.
type Tokens struct {
	lx         Lexer
	tok, ahead Token
	// err is the lexer's first error.
	err error
}

// NewTokens returns a window over src whose current token is its first.
func NewTokens(src string) Tokens {
	t := Tokens{lx: *NewLexer(src)}
	t.tok = t.lex()
	t.ahead = t.lex()
	return t
}

// lex returns the lexer's next token, or EOF once the lexer has failed.
func (t *Tokens) lex() Token {
	if t.err == nil {
		tok, err := t.lx.Next()
		if err == nil {
			return tok
		}
		t.err = err
	}
	return Token{Kind: TokEOF}
}

// Cur returns the current token.
func (t *Tokens) Cur() Token { return t.tok }

// Ahead returns the token after the current one.
func (t *Tokens) Ahead() Token { return t.ahead }

// Next returns the current token and moves the window one token on.
func (t *Tokens) Next() Token {
	tok := t.tok
	t.tok = t.ahead
	t.ahead = t.lex()
	return tok
}

// Is reports whether the current token has kind and text.
func (t *Tokens) Is(kind TokenKind, text string) bool {
	return t.tok.Kind == kind && t.tok.Text == text
}

// Accept moves past the current token if it has kind and text, and
// reports whether it did.
func (t *Tokens) Accept(kind TokenKind, text string) bool {
	if t.Is(kind, text) {
		t.Next()
		return true
	}
	return false
}

// Err lexes the rest of the source and returns its first lexical error, or
// nil if it has none. A parser calls it once it has finished, and returns
// its error ahead of any syntax error: a lexical error anywhere in the
// source wins, exactly as if the source had been lexed in full first.
func (t *Tokens) Err() error {
	for t.err == nil && t.lex().Kind != TokEOF {
	}
	return t.err
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

// intern returns text, a slice of the source, as a string of its own. A
// token text the parser stores in the AST must not alias the source, or it
// would keep the whole source alive with the AST; interning makes that
// copy once per distinct text instead of once per occurrence.
func (lx *Lexer) intern(text string) string {
	if s, ok := lx.names[text]; ok {
		return s
	}
	if lx.names == nil {
		// The corpus systems hold one distinct identifier or integer per
		// 30 to 45 source bytes; sized for one per 64, the table grows
		// once at most.
		lx.names = make(map[string]string, len(lx.src)/64)
	}
	s := strings.Clone(text)
	lx.names[s] = s
	return s
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return &LexError{Pos: start, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

// twoCharOp returns the text of the two-character operator a, b, or "".
func twoCharOp(a, b byte) string {
	switch {
	case b == '=':
		switch a {
		case '=':
			return "=="
		case '!':
			return "!="
		case '<':
			return "<="
		case '>':
			return ">="
		}
	case a == '&' && b == '&':
		return "&&"
	case a == '|' && b == '|':
		return "||"
	}
	return ""
}

// oneCharTexts holds every one-character punctuation and operator.
const oneCharTexts = "(){}[];,.+-*/%!=<>"

// oneCharText returns c's token text as a slice of oneCharTexts, which
// costs no allocation (string(c) allocates one per token).
func oneCharText(c byte) string {
	i := strings.IndexByte(oneCharTexts, c)
	return oneCharTexts[i : i+1]
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token in the stream.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		from := lx.off
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[from:lx.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: TokKeyword, Text: kw, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: lx.intern(text), Pos: start}, nil
	case isDigit(c):
		from := lx.off
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		text := lx.src[from:lx.off]
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Token{}, &LexError{Pos: start, Msg: "integer literal out of range: " + text}
		}
		return Token{Kind: TokInt, Text: lx.intern(text), Int: v, Pos: start}, nil
	case c == '"':
		lx.advance()
		var sb strings.Builder
		for {
			if lx.off >= len(lx.src) {
				return Token{}, &LexError{Pos: start, Msg: "unterminated string literal"}
			}
			ch := lx.advance()
			if ch == '"' {
				break
			}
			if ch == '\n' {
				return Token{}, &LexError{Pos: start, Msg: "newline in string literal"}
			}
			if ch == '\\' {
				if lx.off >= len(lx.src) {
					return Token{}, &LexError{Pos: start, Msg: "unterminated escape sequence"}
				}
				// Decode every escape strconv.Quote emits, so a quoted
				// render (the printer's, the smt atom's) lexes back to the
				// string it quoted.
				v, multibyte, tail, err := strconv.UnquoteChar(lx.src[lx.off-1:], '"')
				if err != nil {
					return Token{}, &LexError{Pos: start, Msg: fmt.Sprintf("unknown escape \\%c", lx.peek())}
				}
				for n := len(lx.src) - len(tail) - lx.off; n > 0; n-- {
					lx.advance()
				}
				if v < utf8.RuneSelf || !multibyte {
					sb.WriteByte(byte(v))
				} else {
					sb.WriteRune(v)
				}
				continue
			}
			sb.WriteByte(ch)
		}
		return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
	}
	// Operators and punctuation. An operator's text is a constant, not a
	// slice of the source: the parser stores it in the AST, and a slice
	// would keep the whole source alive with the AST.
	if lx.off+1 < len(lx.src) {
		if op := twoCharOp(c, lx.src[lx.off+1]); op != "" {
			lx.advance()
			lx.advance()
			return Token{Kind: TokOp, Text: op, Pos: start}, nil
		}
	}
	switch c {
	case '(', ')', '{', '}', '[', ']', ';', ',', '.':
		lx.advance()
		return Token{Kind: TokPunct, Text: oneCharText(c), Pos: start}, nil
	case '+', '-', '*', '/', '%', '!', '=', '<', '>':
		lx.advance()
		return Token{Kind: TokOp, Text: oneCharText(c), Pos: start}, nil
	}
	return Token{}, &LexError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
}
