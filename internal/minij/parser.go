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
// The parser pulls its tokens through a Tokens window as it goes, but a
// lexical error anywhere in src still wins over a syntax error, exactly as
// if src had been lexed in full first.
func Parse(src string) (*Program, error) {
	p := &parser{NewTokens(src)}
	prog, err := p.parseProgram()
	if lexErr := p.Err(); lexErr != nil {
		return nil, lexErr
	}
	if err != nil {
		return nil, err
	}
	if err := indexProgram(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// parser is a recursive-descent parser over a Tokens window: it never
// looks past the token after the current one, and never backtracks.
type parser struct {
	Tokens
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.Is(kind, text) {
		return p.Next(), nil
	}
	t := p.Cur()
	return Token{}, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("expected %q, found %s", text, t)}
}

func (p *parser) expectIdent() (Token, error) {
	t := p.Cur()
	if t.Kind != TokIdent {
		return Token{}, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("expected identifier, found %s", t)}
	}
	return p.Next(), nil
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.Cur().Kind != TokEOF {
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
	for !p.Is(TokPunct, "}") {
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
	start := p.Cur().Pos
	static := p.Accept(TokKeyword, "static")
	ret, err := p.parseTypeOrVoid()
	if err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if p.Is(TokPunct, "(") {
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
	if p.Accept(TokPunct, ")") {
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
		if p.Accept(TokPunct, ",") {
			continue
		}
		_, err = p.expect(TokPunct, ")")
		return err
	}
}

func (p *parser) parseTypeOrVoid() (Type, error) {
	if p.Accept(TokKeyword, "void") {
		return Type{Kind: TypeVoid}, nil
	}
	return p.parseType()
}

// builtinTypes maps each builtin type keyword to its kind.
var builtinTypes = map[string]TypeKind{
	"int": TypeInt, "bool": TypeBool, "string": TypeString, "list": TypeList, "map": TypeMap,
}

// builtinType returns the kind of the builtin type t names, if it names one.
func builtinType(t Token) (TypeKind, bool) {
	if t.Kind != TokKeyword {
		return 0, false
	}
	kind, ok := builtinTypes[t.Text]
	return kind, ok
}

func (p *parser) parseType() (Type, error) {
	t := p.Cur()
	if kind, ok := builtinType(t); ok {
		p.Next()
		return Type{Kind: kind}, nil
	}
	if t.Kind == TokIdent {
		p.Next()
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
	for !p.Is(TokPunct, "}") {
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

func (p *parser) parseStmt() (Stmt, error) {
	t := p.Cur()
	switch {
	case t.Kind == TokKeyword && t.Text == "if":
		return p.parseIf()
	case t.Kind == TokKeyword && t.Text == "while":
		return p.parseWhile()
	case t.Kind == TokKeyword && t.Text == "for":
		return p.parseFor()
	case t.Kind == TokKeyword && t.Text == "return":
		p.Next()
		r := &Return{stmtBase: stmtBase{pos: t.Pos}}
		if !p.Is(TokPunct, ";") {
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
		p.Next()
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Break{stmtBase{pos: t.Pos}}, nil
	case t.Kind == TokKeyword && t.Text == "continue":
		p.Next()
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Continue{stmtBase{pos: t.Pos}}, nil
	case t.Kind == TokKeyword && t.Text == "throw":
		p.Next()
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
		p.Next()
		lock, err := p.parseParenExpr()
		if err != nil {
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

// parseParenExpr parses an expression in parentheses: the condition of an
// if or a while, the lock of a synchronized block, or a primary.
func (p *parser) parseParenExpr() (Expr, error) {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) parseIf() (Stmt, error) {
	kw := p.Next() // "if"
	cond, err := p.parseParenExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &If{stmtBase: stmtBase{pos: kw.Pos}, Cond: cond, Then: then}
	if p.Accept(TokKeyword, "else") {
		if p.Is(TokKeyword, "if") {
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
	kw := p.Next() // "while"
	cond, err := p.parseParenExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &While{stmtBase: stmtBase{pos: kw.Pos}, Cond: cond, Body: body}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	kw := p.Next() // "for"
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	// Foreach form: for (x in e) { ... }
	if in := p.Ahead(); p.Cur().Kind == TokIdent && in.Kind == TokKeyword && in.Text == "in" {
		name := p.Next()
		p.Next() // "in"
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
	if !p.Is(TokPunct, ";") {
		init, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		node.Init = init
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.Is(TokPunct, ";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		node.Cond = cond
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.Is(TokPunct, ")") {
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
	start := p.Cur().Pos
	// A builtin type, or "ClassName name ...", begins a declaration.
	if _, builtin := builtinType(p.Cur()); builtin || (p.Cur().Kind == TokIdent && p.Ahead().Kind == TokIdent) {
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		d := &VarDecl{stmtBase: stmtBase{pos: start}, Type: ty, Name: name.Text}
		if p.Accept(TokOp, "=") {
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
	if p.Accept(TokOp, "=") {
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
	kw := p.Next() // "try"
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

// Expression parsing: precedence climbing over opPrec, the table the
// printer reads too.

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

// unaryPrec is the level opPrec gives a unary operator, and every text
// that is not a binary operator: tighter than any binary operator.
var unaryPrec = opPrec("!")

// parseBinary parses an operand and every binary operator after it whose
// level is at least minPrec. It parses each right operand one level above
// its operator, so a chain of one level nests to the left, as the printer
// reads it.
func (p *parser) parseBinary(minPrec int) (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.Cur()
		prec := opPrec(op.Text)
		if op.Kind != TokOp || prec < minPrec || prec >= unaryPrec {
			return x, nil
		}
		p.Next()
		y, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase: exprBase{pos: op.Pos}, Op: op.Text, X: x, Y: y}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.Is(TokOp, "!") || p.Is(TokOp, "-") {
		op := p.Next()
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
	for p.Is(TokPunct, ".") {
		dot := p.Next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.Is(TokPunct, "(") {
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
	if p.Accept(TokPunct, ")") {
		return args, nil
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.Accept(TokPunct, ",") {
			continue
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return args, nil
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.Cur()
	switch {
	case t.Kind == TokInt:
		p.Next()
		return &IntLit{exprBase: exprBase{pos: t.Pos}, Value: t.Int}, nil
	case t.Kind == TokString:
		p.Next()
		return &StrLit{exprBase: exprBase{pos: t.Pos}, Value: t.Text}, nil
	case t.Kind == TokKeyword && t.Text == "true":
		p.Next()
		return &BoolLit{exprBase: exprBase{pos: t.Pos}, Value: true}, nil
	case t.Kind == TokKeyword && t.Text == "false":
		p.Next()
		return &BoolLit{exprBase: exprBase{pos: t.Pos}, Value: false}, nil
	case t.Kind == TokKeyword && t.Text == "null":
		p.Next()
		return &NullLit{exprBase: exprBase{pos: t.Pos}}, nil
	case t.Kind == TokKeyword && t.Text == "new":
		p.Next()
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
		p.Next()
		if p.Is(TokPunct, "(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &Call{exprBase: exprBase{pos: t.Pos}, Name: t.Text, Args: args}, nil
		}
		return &Ident{exprBase: exprBase{pos: t.Pos}, Name: t.Text}, nil
	case t.Kind == TokPunct && t.Text == "(":
		return p.parseParenExpr()
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
