package minij

import (
	"bytes"
	"fmt"
	"strconv"
)

// CanonExpr renders an expression in canonical single-line form. Canonical
// text is whitespace-normalized and fully parenthesis-free except where
// required, so two syntactically equal expressions always canonicalize to
// the same string. Contract target patterns match against this form.
func CanonExpr(e Expr) string {
	var buf [canonBufSize]byte
	return string(appendExpr(buf[:0], e, 0))
}

// canonBufSize is the stack buffer a standalone render starts in: the
// returned string is then its only allocation, of exactly its length, for
// every head that fits.
const canonBufSize = 128

// precedence levels for canonical printing (higher binds tighter).
func opPrec(op string) int {
	switch op {
	case "||":
		return 1
	case "&&":
		return 2
	case "==", "!=":
		return 3
	case "<", "<=", ">", ">=":
		return 4
	case "+", "-":
		return 5
	case "*", "/", "%":
		return 6
	}
	return 7
}

// appendExpr appends e's canonical render to b. It and appendStmtHead
// recurse only into themselves: the escape analysis keeps a standalone
// render's stack buffer on the stack through self-recursion, not through
// a cycle of two functions.
func appendExpr(b []byte, e Expr, parent int) []byte {
	var args []Expr
	switch n := e.(type) {
	case *IntLit:
		return strconv.AppendInt(b, n.Value, 10)
	case *BoolLit:
		return strconv.AppendBool(b, n.Value)
	case *StrLit:
		return strconv.AppendQuote(b, n.Value)
	case *NullLit:
		return append(b, "null"...)
	case *Ident:
		return append(b, n.Name...)
	case *FieldAccess:
		b = appendExpr(b, n.Recv, 7)
		b = append(b, '.')
		return append(b, n.Name...)
	case *Call:
		if n.Recv != nil {
			b = appendExpr(b, n.Recv, 7)
			b = append(b, '.')
		}
		b = append(b, n.Name...)
		args = n.Args
	case *New:
		b = append(b, "new "...)
		b = append(b, n.Class...)
		args = n.Args
	case *Unary:
		b = append(b, n.Op...)
		return appendExpr(b, n.X, 7)
	case *Binary:
		prec := opPrec(n.Op)
		if prec < parent {
			b = append(b, '(')
		}
		b = appendExpr(b, n.X, prec)
		b = append(b, ' ')
		b = append(b, n.Op...)
		b = append(b, ' ')
		// Right operand uses prec+1 so chains print left-associatively
		// with explicit parens on the right when re-nesting occurs.
		b = appendExpr(b, n.Y, prec+1)
		if prec < parent {
			b = append(b, ')')
		}
		return b
	default:
		// Sprintf, not Appendf: b handed to fmt would escape, and every
		// standalone render's stack buffer with it.
		return append(b, fmt.Sprintf("<?expr %T>", e)...)
	}
	// A call's or a new's argument list.
	b = append(b, '(')
	for i, a := range args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendExpr(b, a, 0)
	}
	return append(b, ')')
}

// CanonStmt renders the head of a statement in canonical single-line form.
// Compound statements render only their header (e.g. "if (cond)"), which is
// what target-statement patterns match against.
func CanonStmt(s Stmt) string {
	var buf [canonBufSize]byte
	return string(appendStmtHead(buf[:0], s))
}

// appendStmtHead appends s's canonical head, CanonStmt's text, to b. The
// program render writes its statement heads with it too, so the two cannot
// disagree.
func appendStmtHead(b []byte, s Stmt) []byte {
	switch n := s.(type) {
	case *Block:
		return append(b, "{...}"...)
	case *VarDecl:
		b = append(b, n.Type.String()...)
		b = append(b, ' ')
		b = append(b, n.Name...)
		if n.Init != nil {
			b = append(b, " = "...)
			b = appendExpr(b, n.Init, 0)
		}
		return append(b, ';')
	case *Assign:
		b = appendExpr(b, n.Target, 0)
		b = append(b, " = "...)
		b = appendExpr(b, n.Value, 0)
		return append(b, ';')
	case *If:
		b = append(b, "if ("...)
		b = appendExpr(b, n.Cond, 0)
		return append(b, ')')
	case *While:
		b = append(b, "while ("...)
		b = appendExpr(b, n.Cond, 0)
		return append(b, ')')
	case *For:
		// The init and post clauses print without their semicolons.
		b = append(b, "for ("...)
		if n.Init != nil {
			b = appendStmtHead(b, n.Init)
			b = bytes.TrimSuffix(b, semicolon)
		}
		b = append(b, "; "...)
		if n.Cond != nil {
			b = appendExpr(b, n.Cond, 0)
		}
		b = append(b, "; "...)
		if n.Post != nil {
			b = appendStmtHead(b, n.Post)
			b = bytes.TrimSuffix(b, semicolon)
		}
		return append(b, ')')
	case *ForEach:
		b = append(b, "for ("...)
		b = append(b, n.Var...)
		b = append(b, " in "...)
		b = appendExpr(b, n.Iter, 0)
		return append(b, ')')
	case *Return:
		if n.Value == nil {
			return append(b, "return;"...)
		}
		b = append(b, "return "...)
		b = appendExpr(b, n.Value, 0)
		return append(b, ';')
	case *Break:
		return append(b, "break;"...)
	case *Continue:
		return append(b, "continue;"...)
	case *Throw:
		b = append(b, "throw "...)
		b = appendExpr(b, n.Value, 0)
		return append(b, ';')
	case *Try:
		return append(b, "try"...)
	case *Sync:
		b = append(b, "synchronized ("...)
		b = appendExpr(b, n.Lock, 0)
		return append(b, ')')
	case *ExprStmt:
		b = appendExpr(b, n.E, 0)
		return append(b, ';')
	}
	return append(b, fmt.Sprintf("<?stmt %T>", s)...)
}

var semicolon = []byte{';'}

// FormatProgram pretty-prints a program in canonical multi-line form with
// tab indentation. Formatting the same program twice yields identical text,
// which makes version-to-version diffs stable.
func FormatProgram(p *Program) string {
	return string(AppendProgram(nil, p.Classes, nil))
}

// AppendProgram appends the canonical render of classes — FormatProgram's
// text for a program of those classes — to b and returns the extended
// buffer. When method is non-nil, it is called with each method and the
// part of the render that is the method's own (FormatMethod's text after
// its name line) as soon as that part is written; the slice is only valid
// during the call. One render thus yields a program's digest and all of
// its methods' digests.
func AppendProgram(b []byte, classes []*Class, method func(m *Method, text []byte)) []byte {
	for i, c := range classes {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, "class "...)
		b = append(b, c.Name...)
		b = append(b, " {\n"...)
		for _, f := range c.Fields {
			b = append(b, '\t')
			b = append(b, f.Type.String()...)
			b = append(b, ' ')
			b = append(b, f.Name...)
			b = append(b, ";\n"...)
		}
		if len(c.Fields) > 0 && len(c.Methods) > 0 {
			b = append(b, '\n')
		}
		for j, m := range c.Methods {
			if j > 0 {
				b = append(b, '\n')
			}
			from := len(b)
			b = appendMethod(b, m)
			if method != nil {
				method(m, b[from:])
			}
		}
		b = append(b, "}\n"...)
	}
	return b
}

// FormatMethod pretty-prints one method in canonical form, prefixed with
// its qualified name. Like FormatProgram, the output depends only on the
// method's AST — never on source positions or original whitespace — so it
// doubles as the content identity the incremental scheduler fingerprints.
func FormatMethod(m *Method) string {
	b := append([]byte(m.FullName()), '\n')
	return string(appendMethod(b, m))
}

func appendMethod(b []byte, m *Method) []byte {
	b = append(b, '\t')
	if m.Static {
		b = append(b, "static "...)
	}
	b = append(b, m.Ret.String()...)
	b = append(b, ' ')
	b = append(b, m.Name...)
	b = append(b, '(')
	for i, p := range m.Params {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, p.Type.String()...)
		b = append(b, ' ')
		b = append(b, p.Name...)
	}
	b = append(b, ") "...)
	b = appendBlock(b, m.Body, 1)
	return append(b, '\n')
}

func appendBlock(b []byte, blk *Block, depth int) []byte {
	b = append(b, "{\n"...)
	for _, s := range blk.Stmts {
		b = appendStmt(b, s, depth+1)
	}
	b = appendIndent(b, depth)
	return append(b, '}')
}

func appendIndent(b []byte, depth int) []byte {
	for i := 0; i < depth; i++ {
		b = append(b, '\t')
	}
	return b
}

// appendStmt appends one statement on its own lines at depth: its head,
// then the blocks of a compound statement.
func appendStmt(b []byte, s Stmt, depth int) []byte {
	b = appendIndent(b, depth)
	switch n := s.(type) {
	case *Block:
		b = appendBlock(b, n, depth)
	case *If:
		b = appendIf(b, n, depth)
	case *While:
		b = appendHeadBlock(b, n, n.Body, depth)
	case *For:
		b = appendHeadBlock(b, n, n.Body, depth)
	case *ForEach:
		b = appendHeadBlock(b, n, n.Body, depth)
	case *Sync:
		b = appendHeadBlock(b, n, n.Body, depth)
	case *Try:
		b = append(b, "try "...)
		b = appendBlock(b, n.Body, depth)
		b = append(b, " catch ("...)
		b = append(b, n.CatchVar...)
		b = append(b, ") "...)
		b = appendBlock(b, n.Catch, depth)
	default:
		b = appendStmtHead(b, s)
	}
	return append(b, '\n')
}

// appendHeadBlock appends a compound statement's head and its body.
func appendHeadBlock(b []byte, s Stmt, body *Block, depth int) []byte {
	b = appendStmtHead(b, s)
	b = append(b, ' ')
	return appendBlock(b, body, depth)
}

func appendIf(b []byte, n *If, depth int) []byte {
	b = appendHeadBlock(b, n, n.Then, depth)
	switch e := n.Else.(type) {
	case *If:
		b = append(b, " else "...)
		b = appendIf(b, e, depth)
	case *Block:
		b = append(b, " else "...)
		b = appendBlock(b, e, depth)
	}
	return b
}
