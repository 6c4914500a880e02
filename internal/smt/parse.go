package smt

import (
	"fmt"

	"lisa/internal/minij"
)

// ParsePredicate parses the predicate language used for contract conditions
// (a strict subset of MiniJ expression syntax):
//
//	or     := and ("||" and)*
//	and    := unary ("&&" unary)*
//	unary  := "!" unary | "(" or ")" | atom | "true" | "false"
//	atom   := path [op operand]
//	path   := ident ["()"] ("." ident ["()"])*
//	operand:= int | "-" int | "null" | "true" | "false" | string | path
//
// A nullary getter suffix "()" canonicalizes away: `s.isClosing()` parses to
// the path "s.isClosing". A bare path is a boolean state predicate.
func ParsePredicate(src string) (Formula, error) {
	p := &predParser{minij.NewTokens(src)}
	f, err := p.parseOr()
	if err == nil && p.Cur().Kind != minij.TokEOF {
		err = errorAt(p.Cur().Pos, "trailing input %s", p.Cur())
	}
	if lexErr := p.Err(); lexErr != nil {
		return nil, fmt.Errorf("smt: %w", lexErr)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// MustParsePredicate parses src and panics on error. It is a test helper
// for declaring literal predicates in test tables; production code parses
// with ParsePredicate and threads the error to its caller, so a malformed
// predicate degrades the run instead of crashing the process.
func MustParsePredicate(src string) Formula {
	f, err := ParsePredicate(src)
	if err != nil {
		panic(err)
	}
	return f
}

// ParseError is a predicate syntax error at a source position. A lexical
// error in a predicate is returned as a *minij.LexError, wrapped.
type ParseError struct {
	Pos minij.Pos
	Msg string
}

// Error renders the error as "smt: line:col: message".
func (e *ParseError) Error() string { return "smt: " + e.Pos.String() + ": " + e.Msg }

// errorAt returns a *ParseError at pos with a formatted message.
func errorAt(pos minij.Pos, format string, args ...any) error {
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// predParser parses a predicate over a minij.Tokens window, the one
// minij.Parse reads a program through.
type predParser struct {
	minij.Tokens
}

func (p *predParser) parseOr() (Formula, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	xs := []Formula{x}
	for p.Accept(minij.TokOp, "||") {
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		xs = append(xs, y)
	}
	return NewOr(xs...), nil
}

func (p *predParser) parseAnd() (Formula, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	xs := []Formula{x}
	for p.Accept(minij.TokOp, "&&") {
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		xs = append(xs, y)
	}
	return NewAnd(xs...), nil
}

func (p *predParser) parseUnary() (Formula, error) {
	if p.Accept(minij.TokOp, "!") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return NewNot(x), nil
	}
	if p.Accept(minij.TokPunct, "(") {
		x, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.Accept(minij.TokPunct, ")") {
			return nil, errorAt(p.Cur().Pos, "expected \")\"")
		}
		return x, nil
	}
	if p.Accept(minij.TokKeyword, "true") {
		return True(), nil
	}
	if p.Accept(minij.TokKeyword, "false") {
		return False(), nil
	}
	return p.parseAtom()
}

// cmpOps maps operator tokens to CmpOp.
var cmpOps = map[string]CmpOp{
	"==": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *predParser) parseAtom() (Formula, error) {
	path, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	op, isCmp := cmpOps[p.Cur().Text]
	if !isCmp || p.Cur().Kind != minij.TokOp {
		return NewAtom(BoolAtom(path)), nil
	}
	opPos := p.Next().Pos
	t := p.Cur()
	switch {
	case t.Kind == minij.TokInt:
		p.Next()
		return NewAtom(CmpCAtom(path, op, t.Int)), nil
	case t.Kind == minij.TokOp && t.Text == "-":
		p.Next()
		lit := p.Cur()
		if lit.Kind != minij.TokInt {
			return nil, errorAt(lit.Pos, "expected integer after \"-\"")
		}
		p.Next()
		return NewAtom(CmpCAtom(path, op, -lit.Int)), nil
	case t.Kind == minij.TokKeyword && t.Text == "null":
		p.Next()
		switch op {
		case OpEq:
			return NewAtom(NullAtom(path)), nil
		case OpNe:
			return NewNot(NewAtom(NullAtom(path))), nil
		}
		return nil, errorAt(opPos, "null supports only == and !=")
	case t.Kind == minij.TokKeyword && (t.Text == "true" || t.Text == "false"):
		p.Next()
		positive := (t.Text == "true") == (op == OpEq)
		if op != OpEq && op != OpNe {
			return nil, errorAt(opPos, "booleans support only == and !=")
		}
		if positive {
			return NewAtom(BoolAtom(path)), nil
		}
		return NewNot(NewAtom(BoolAtom(path))), nil
	case t.Kind == minij.TokString:
		p.Next()
		if op != OpEq && op != OpNe {
			return nil, errorAt(opPos, "strings support only == and !=")
		}
		return NewAtom(StrEqAtom(path, op, t.Text)), nil
	case t.Kind == minij.TokIdent:
		path2, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		return NewAtom(CmpVAtom(path, op, path2)), nil
	}
	return nil, errorAt(t.Pos, "expected operand, found %s", t)
}

func (p *predParser) parsePath() (string, error) {
	t := p.Cur()
	if t.Kind != minij.TokIdent {
		return "", errorAt(t.Pos, "expected path, found %s", t)
	}
	p.Next()
	path := t.Text
	p.acceptCallSuffix()
	for p.Accept(minij.TokPunct, ".") {
		seg := p.Cur()
		if seg.Kind != minij.TokIdent {
			return "", errorAt(seg.Pos, "expected identifier after \".\"")
		}
		p.Next()
		path += "." + seg.Text
		p.acceptCallSuffix()
	}
	return path, nil
}

// acceptCallSuffix consumes a nullary call suffix "()" if present, which
// canonicalizes getter calls to field-style paths.
func (p *predParser) acceptCallSuffix() {
	if ahead := p.Ahead(); p.Is(minij.TokPunct, "(") && ahead.Kind == minij.TokPunct && ahead.Text == ")" {
		p.Next()
		p.Next()
	}
}
