package minij

import "fmt"

// ParseError describes a syntax error with its source position.
type ParseError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parse parses a MiniJ compilation unit. On success the returned program has
// class/method/field lookup tables built and every statement assigned a dense
// program-unique ID in source order.
//
// The parser pulls its tokens from a Lexer as it goes, but a lexical error
// anywhere in src still wins over a syntax error, exactly as if src had been
// lexed in full first.
func Parse(src string) (*Program, error) {
	p := &parser{lx: NewLexer(src)}
	p.tok = p.lex()
	p.ahead = p.lex()
	prog, err := p.parseProgram()
	if err != nil {
		if lexErr := p.drain(); lexErr != nil {
			return nil, lexErr
		}
		return nil, err
	}
	// A lexical error that follows the last token.
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err := indexProgram(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// parser is a recursive-descent parser over a two-token window: it never
// looks past the token after the current one, and never backtracks.
type parser struct {
	lx         *Lexer
	tok, ahead Token
	// lexErr is the lexer's first error; every token after it is EOF.
	lexErr error
}

// lex returns the lexer's next token, or EOF once the lexer has failed.
func (p *parser) lex() Token {
	if p.lexErr == nil {
		t, err := p.lx.Next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return Token{Kind: TokEOF}
}

// drain lexes the rest of the source and returns its first lexical error,
// if it has one.
func (p *parser) drain() error {
	for p.lexErr == nil && p.lex().Kind != TokEOF {
	}
	return p.lexErr
}

// advance moves the window one token on.
func (p *parser) advance() {
	p.tok = p.ahead
	p.ahead = p.lex()
}

func (p *parser) cur() Token  { return p.tok }
func (p *parser) next() Token { t := p.tok; p.advance(); return t }

func (p *parser) peekIs(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && t.Text == text
}

func (p *parser) peek2Is(kind TokenKind, text string) bool {
	return p.ahead.Kind == kind && p.ahead.Text == text
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.peekIs(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	t := p.cur()
	if t.Kind == kind && t.Text == text {
		p.advance()
		return t, nil
	}
	return Token{}, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("expected %q, found %s", text, t)}
}

func (p *parser) expectIdent() (Token, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return Token{}, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("expected identifier, found %s", t)}
	}
	p.advance()
	return t, nil
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.cur().Kind != TokEOF {
		c, err := p.parseClass()
		if err != nil {
			return nil, err
		}
		prog.Classes = append(prog.Classes, c)
	}
	return prog, nil
}

func (p *parser) parseClass() (*Class, error) {
	kw, err := p.expect(TokKeyword, "class")
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	c := &Class{Name: name.Text, DeclPos: kw.Pos}
	for !p.peekIs(TokPunct, "}") {
		if err := p.parseMember(c); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokPunct, "}"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseMember parses a field or a method and appends it to c.
func (p *parser) parseMember(c *Class) error {
	start := p.cur().Pos
	static := p.accept(TokKeyword, "static")
	ret, err := p.parseTypeOrVoid()
	if err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if p.peekIs(TokPunct, "(") {
		m := &Method{Class: c, Name: name.Text, Static: static, Ret: ret, DeclPos: start}
		if err := p.parseParams(m); err != nil {
			return err
		}
		body, err := p.parseBlock()
		if err != nil {
			return err
		}
		m.Body = body
		c.Methods = append(c.Methods, m)
		return nil
	}
	if static {
		return &ParseError{Pos: start, Msg: "fields may not be static"}
	}
	if ret.Kind == TypeVoid {
		return &ParseError{Pos: start, Msg: "fields may not have void type"}
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return err
	}
	c.Fields = append(c.Fields, &Field{Name: name.Text, Type: ret, DeclPos: start})
	return nil
}

func (p *parser) parseParams(m *Method) error {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return err
	}
	if p.accept(TokPunct, ")") {
		return nil
	}
	for {
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		m.Params = append(m.Params, &Param{Name: name.Text, Type: ty})
		if p.accept(TokPunct, ",") {
			continue
		}
		_, err = p.expect(TokPunct, ")")
		return err
	}
}

func (p *parser) parseTypeOrVoid() (Type, error) {
	if p.accept(TokKeyword, "void") {
		return Type{Kind: TypeVoid}, nil
	}
	return p.parseType()
}

func (p *parser) parseType() (Type, error) {
	t := p.cur()
	switch {
	case t.Kind == TokKeyword && t.Text == "int":
		p.advance()
		return Type{Kind: TypeInt}, nil
	case t.Kind == TokKeyword && t.Text == "bool":
		p.advance()
		return Type{Kind: TypeBool}, nil
	case t.Kind == TokKeyword && t.Text == "string":
		p.advance()
		return Type{Kind: TypeString}, nil
	case t.Kind == TokKeyword && t.Text == "list":
		p.advance()
		return Type{Kind: TypeList}, nil
	case t.Kind == TokKeyword && t.Text == "map":
		p.advance()
		return Type{Kind: TypeMap}, nil
	case t.Kind == TokIdent:
		p.advance()
		return Type{Kind: TypeObject, Class: t.Text}, nil
	}
	return Type{}, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("expected type, found %s", t)}
}

func (p *parser) parseBlock() (*Block, error) {
	open, err := p.expect(TokPunct, "{")
	if err != nil {
		return nil, err
	}
	b := &Block{stmtBase: stmtBase{pos: open.Pos}}
	for !p.peekIs(TokPunct, "}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	if _, err := p.expect(TokPunct, "}"); err != nil {
		return nil, err
	}
	return b, nil
}

// isTypeKeyword reports whether the current token begins a builtin type.
func (p *parser) isTypeKeyword() bool {
	t := p.cur()
	if t.Kind != TokKeyword {
		return false
	}
	switch t.Text {
	case "int", "bool", "string", "list", "map":
		return true
	}
	return false
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.Kind == TokKeyword && t.Text == "if":
		return p.parseIf()
	case t.Kind == TokKeyword && t.Text == "while":
		return p.parseWhile()
	case t.Kind == TokKeyword && t.Text == "for":
		return p.parseFor()
	case t.Kind == TokKeyword && t.Text == "return":
		p.advance()
		r := &Return{stmtBase: stmtBase{pos: t.Pos}}
		if !p.peekIs(TokPunct, ";") {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.Value = v
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return r, nil
	case t.Kind == TokKeyword && t.Text == "break":
		p.advance()
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Break{stmtBase{pos: t.Pos}}, nil
	case t.Kind == TokKeyword && t.Text == "continue":
		p.advance()
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Continue{stmtBase{pos: t.Pos}}, nil
	case t.Kind == TokKeyword && t.Text == "throw":
		p.advance()
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Throw{stmtBase: stmtBase{pos: t.Pos}, Value: v}, nil
	case t.Kind == TokKeyword && t.Text == "try":
		return p.parseTry()
	case t.Kind == TokKeyword && t.Text == "synchronized":
		p.advance()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		lock, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &Sync{stmtBase: stmtBase{pos: t.Pos}, Lock: lock, Body: body}, nil
	case t.Kind == TokPunct && t.Text == "{":
		return p.parseBlock()
	}
	return p.parseExprOrAssign()
}

func (p *parser) parseIf() (Stmt, error) {
	kw := p.next() // "if"
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &If{stmtBase: stmtBase{pos: kw.Pos}, Cond: cond, Then: then}
	if p.accept(TokKeyword, "else") {
		if p.peekIs(TokKeyword, "if") {
			elseIf, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			node.Else = elseIf
		} else {
			blk, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			node.Else = blk
		}
	}
	return node, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	kw := p.next() // "while"
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &While{stmtBase: stmtBase{pos: kw.Pos}, Cond: cond, Body: body}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	kw := p.next() // "for"
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	// Foreach form: for (x in e) { ... }
	if p.cur().Kind == TokIdent && p.peek2Is(TokKeyword, "in") {
		name := p.next()
		p.next() // "in"
		iter, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ForEach{stmtBase: stmtBase{pos: kw.Pos}, Var: name.Text, Iter: iter, Body: body}, nil
	}
	node := &For{stmtBase: stmtBase{pos: kw.Pos}}
	if !p.peekIs(TokPunct, ";") {
		init, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		node.Init = init
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.peekIs(TokPunct, ";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		node.Cond = cond
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.peekIs(TokPunct, ")") {
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		node.Post = post
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node.Body = body
	return node, nil
}

// parseSimpleStmt parses a declaration, assignment, or call without the
// trailing semicolon: a for clause, or the body of a statement that
// parseExprOrAssign ends.
func (p *parser) parseSimpleStmt() (Stmt, error) {
	start := p.cur().Pos
	// A builtin type, or "ClassName name ...", begins a declaration.
	if p.isTypeKeyword() || (p.cur().Kind == TokIdent && p.ahead.Kind == TokIdent) {
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		d := &VarDecl{stmtBase: stmtBase{pos: start}, Type: ty, Name: name.Text}
		if p.accept(TokOp, "=") {
			init, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		return d, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.accept(TokOp, "=") {
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !isAssignable(e) {
			return nil, &ParseError{Pos: e.Pos(), Msg: "left side of assignment must be a variable or field"}
		}
		return &Assign{stmtBase: stmtBase{pos: start}, Target: e, Value: val}, nil
	}
	return &ExprStmt{stmtBase: stmtBase{pos: start}, E: e}, nil
}

func (p *parser) parseTry() (Stmt, error) {
	kw := p.next() // "try"
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "catch"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	catch, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &Try{stmtBase: stmtBase{pos: kw.Pos}, Body: body, CatchVar: name.Text, Catch: catch}, nil
}

// parseExprOrAssign parses a simple statement and its semicolon.
func (p *parser) parseExprOrAssign() (Stmt, error) {
	s, err := p.parseSimpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return s, nil
}

func isAssignable(e Expr) bool {
	switch e.(type) {
	case *Ident, *FieldAccess:
		return true
	}
	return false
}

// Expression parsing: precedence climbing.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "||") {
		op := p.next()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: "||", X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseAnd() (Expr, error) {
	x, err := p.parseEq()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "&&") {
		op := p.next()
		y, err := p.parseEq()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: "&&", X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseEq() (Expr, error) {
	x, err := p.parseRel()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "==") || p.peekIs(TokOp, "!=") {
		op := p.next()
		y, err := p.parseRel()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: op.Text, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseRel() (Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "<") || p.peekIs(TokOp, "<=") || p.peekIs(TokOp, ">") || p.peekIs(TokOp, ">=") {
		op := p.next()
		y, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: op.Text, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseAdd() (Expr, error) {
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "+") || p.peekIs(TokOp, "-") {
		op := p.next()
		y, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: op.Text, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseMul() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOp, "*") || p.peekIs(TokOp, "/") || p.peekIs(TokOp, "%") {
		op := p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: op.Text, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peekIs(TokOp, "!") || p.peekIs(TokOp, "-") {
		op := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{pos: op.Pos}, Op: op.Text, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokPunct, ".") {
		dot := p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.peekIs(TokPunct, "(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			x = &Call{exprBase: exprBase{pos: dot.Pos}, Recv: x, Name: name.Text, Args: args}
		} else {
			x = &FieldAccess{exprBase: exprBase{pos: dot.Pos}, Recv: x, Name: name.Text}
		}
	}
	return x, nil
}

func (p *parser) parseArgs() ([]Expr, error) {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	var args []Expr
	if p.accept(TokPunct, ")") {
		return args, nil
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.accept(TokPunct, ",") {
			continue
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return args, nil
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.advance()
		return &IntLit{exprBase: exprBase{pos: t.Pos}, Value: t.Int}, nil
	case t.Kind == TokString:
		p.advance()
		return &StrLit{exprBase: exprBase{pos: t.Pos}, Value: t.Text}, nil
	case t.Kind == TokKeyword && t.Text == "true":
		p.advance()
		return &BoolLit{exprBase: exprBase{pos: t.Pos}, Value: true}, nil
	case t.Kind == TokKeyword && t.Text == "false":
		p.advance()
		return &BoolLit{exprBase: exprBase{pos: t.Pos}, Value: false}, nil
	case t.Kind == TokKeyword && t.Text == "null":
		p.advance()
		return &NullLit{exprBase: exprBase{pos: t.Pos}}, nil
	case t.Kind == TokKeyword && t.Text == "new":
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return &New{exprBase: exprBase{pos: t.Pos}, Class: name.Text, Args: args}, nil
	case t.Kind == TokIdent:
		p.advance()
		if p.peekIs(TokPunct, "(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &Call{exprBase: exprBase{pos: t.Pos}, Name: t.Text, Args: args}, nil
		}
		return &Ident{exprBase: exprBase{pos: t.Pos}, Name: t.Text}, nil
	case t.Kind == TokPunct && t.Text == "(":
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("expected expression, found %s", t)}
}

// indexProgram builds lookup tables and assigns dense statement IDs in
// source order. Repeated declarations of the same class merge into one
// (open classes), which lets independently authored test files contribute
// methods to a shared test class; duplicate members are an error.
func indexProgram(prog *Program) error {
	merged := make([]*Class, 0, len(prog.Classes))
	byName := make(map[string]*Class, len(prog.Classes))
	for _, c := range prog.Classes {
		base, seen := byName[c.Name]
		if !seen {
			merged = append(merged, c)
			byName[c.Name] = c
			continue
		}
		for _, f := range c.Fields {
			base.Fields = append(base.Fields, f)
		}
		for _, m := range c.Methods {
			m.Class = base
			base.Methods = append(base.Methods, m)
		}
	}
	prog.Classes = merged
	prog.byName = byName
	for _, c := range prog.Classes {
		c.fieldsByName = make(map[string]*Field, len(c.Fields))
		for _, f := range c.Fields {
			if _, dup := c.fieldsByName[f.Name]; dup {
				return &ParseError{Pos: f.DeclPos, Msg: fmt.Sprintf("duplicate field %s.%s", c.Name, f.Name)}
			}
			c.fieldsByName[f.Name] = f
		}
		c.methodsByName = make(map[string]*Method, len(c.Methods))
		for _, m := range c.Methods {
			if _, dup := c.methodsByName[m.Name]; dup {
				return &ParseError{Pos: m.DeclPos, Msg: fmt.Sprintf("duplicate method %s.%s", c.Name, m.Name)}
			}
			c.methodsByName[m.Name] = m
		}
	}
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			WalkStmts(m.Body, func(s Stmt) {
				s.setID(len(prog.stmts))
				prog.stmts = append(prog.stmts, s)
				prog.stmtMethod = append(prog.stmtMethod, m)
			})
		}
	}
	return nil
}
