// Package concolic implements LISA's path-condition machinery over MiniJ:
// a static intraprocedural path enumerator that collects the guard
// conditions protecting a contract's target statement, and a dynamic
// concolic runner that replays tests under the interpreter while recording
// the symbolic form of every relevant branch taken. Both feed the §3.2
// complement check: a path violates a semantic iff its recorded condition
// is satisfiable together with the complement of the site's checker
// formula. This package plays the role WeBridge plays in the paper.
package concolic

import (
	"strconv"

	"lisa/internal/minij"
	"lisa/internal/smt"
)

// ConstVal is a compile-time-known constant used for normalization:
// "replace constant variables with their actual value rather than ignoring
// them" (§3.2).
type ConstVal struct {
	Kind minij.TypeKind // TypeInt, TypeBool, TypeString, TypeNull
	Int  int64
	Bool bool
	Str  string
}

// IntConst wraps an integer constant.
func IntConst(v int64) ConstVal { return ConstVal{Kind: minij.TypeInt, Int: v} }

// BoolConst wraps a boolean constant.
func BoolConst(v bool) ConstVal { return ConstVal{Kind: minij.TypeBool, Bool: v} }

// StrConst wraps a string constant.
func StrConst(v string) ConstVal { return ConstVal{Kind: minij.TypeString, Str: v} }

// NullConst is the null constant.
func NullConst() ConstVal { return ConstVal{Kind: minij.TypeNull} }

// Env resolves identifiers during guard translation: a name maps to a
// dotted path (its symbolic identity), a known constant, or neither
// (opaque).
type Env interface {
	// PathOf returns the symbolic path an identifier currently aliases,
	// if any.
	PathOf(name string) (string, bool)
	// ConstOf returns the constant a path currently holds, if known.
	ConstOf(path string) (ConstVal, bool)
}

// ProgramProvider is an optional Env extension. When the environment can
// name the resolved program, the translator normalizes nullary getters by
// inlining their bodies (s.isValid() over `return !expired;` becomes
// !(s.expired)), so path conditions, mined rules, and developer-authored
// rules all speak the same field vocabulary — the §3.2 normalization step.
type ProgramProvider interface {
	Program() *minij.Program
}

// maxGetterDepth bounds nested getter inlining.
const maxGetterDepth = 4

// getterEnv resolves identifiers inside an inlined getter body: fields of
// the receiver class map under the receiver path; anything else is opaque.
// Constants still resolve through the outer environment.
type getterEnv struct {
	recvPath string
	class    *minij.Class
	outer    Env
	prog     *minij.Program
	depth    int
}

func (g *getterEnv) PathOf(name string) (string, bool) {
	if g.class.Field(name) != nil {
		return g.recvPath + "." + name, true
	}
	return "", false
}

func (g *getterEnv) ConstOf(path string) (ConstVal, bool) { return g.outer.ConstOf(path) }

func (g *getterEnv) Program() *minij.Program { return g.prog }

// envProgram extracts the resolved program and remaining inline depth from
// an environment.
func envProgram(env Env) (*minij.Program, int) {
	switch e := env.(type) {
	case *getterEnv:
		return e.prog, e.depth
	case ProgramProvider:
		return e.Program(), maxGetterDepth
	}
	return nil, 0
}

// getterBody returns the single returned expression of a pure nullary
// getter, or nil.
func getterBody(prog *minij.Program, class string, method string) minij.Expr {
	m := prog.Method(class, method)
	if m == nil || m.Static || len(m.Params) != 0 || len(m.Body.Stmts) != 1 {
		return nil
	}
	ret, ok := m.Body.Stmts[0].(*minij.Return)
	if !ok || ret.Value == nil {
		return nil
	}
	return ret.Value
}

// inlineGetterEnv prepares the environment for inlining a getter call, or
// nil when the call is not an inlinable getter.
func inlineGetterEnv(call *minij.Call, env Env) (*getterEnv, minij.Expr) {
	prog, depth := envProgram(env)
	if prog == nil || depth <= 0 || call.Recv == nil || len(call.Args) != 0 {
		return nil, nil
	}
	rt := call.RecvType
	if rt.Kind != minij.TypeObject {
		return nil, nil
	}
	body := getterBody(prog, rt.Class, call.Name)
	if body == nil {
		return nil, nil
	}
	recv, ok := translateTerm(call.Recv, env)
	if !ok || !recv.isPath {
		return nil, nil
	}
	return &getterEnv{
		recvPath: recv.path,
		class:    prog.Class(rt.Class),
		outer:    env,
		prog:     prog,
		depth:    depth - 1,
	}, body
}

// inlineGetterBool inlines a nullary getter used in boolean position,
// returning the body's formula under the receiver's field vocabulary.
func inlineGetterBool(call *minij.Call, env Env) (smt.Formula, bool) {
	genv, body := inlineGetterEnv(call, env)
	if genv == nil {
		return nil, false
	}
	return translateBool(body, genv)
}

// symTerm is the translated form of a non-boolean subexpression.
type symTerm struct {
	isPath  bool
	path    string
	isConst bool
	c       ConstVal
}

// Translate converts a MiniJ boolean guard expression into a predicate
// formula over dotted paths, substituting known constants. ok is false when
// the guard contains subexpressions outside the predicate fragment
// (arithmetic on unknowns, calls with arguments, container operations); the
// paper's pruning simply skips such branches.
func Translate(e minij.Expr, env Env) (smt.Formula, bool) {
	return translateBool(e, env)
}

func translateBool(e minij.Expr, env Env) (smt.Formula, bool) {
	switch n := e.(type) {
	case *minij.BoolLit:
		if n.Value {
			return smt.True(), true
		}
		return smt.False(), true
	case *minij.Unary:
		if n.Op != "!" {
			return nil, false
		}
		x, ok := translateBool(n.X, env)
		if !ok {
			return nil, false
		}
		return smt.NewNot(x), true
	case *minij.Binary:
		switch n.Op {
		case "&&":
			x, ok1 := translateBool(n.X, env)
			y, ok2 := translateBool(n.Y, env)
			if !ok1 || !ok2 {
				return nil, false
			}
			return smt.NewAnd(x, y), true
		case "||":
			x, ok1 := translateBool(n.X, env)
			y, ok2 := translateBool(n.Y, env)
			if !ok1 || !ok2 {
				return nil, false
			}
			return smt.NewOr(x, y), true
		case "==", "!=", "<", "<=", ">", ">=":
			return translateCmp(n, env)
		}
		return nil, false
	default:
		// A nullary getter in boolean position inlines to its body's
		// formula (normalization).
		if call, isCall := e.(*minij.Call); isCall {
			if f, ok := inlineGetterBool(call, env); ok {
				return f, true
			}
		}
		// A bare term used as a boolean: path becomes a state predicate,
		// constant folds.
		t, ok := translateTerm(e, env)
		if !ok {
			return nil, false
		}
		if t.isConst {
			if t.c.Kind == minij.TypeBool {
				if t.c.Bool {
					return smt.True(), true
				}
				return smt.False(), true
			}
			return nil, false
		}
		return smt.NewAtom(smt.BoolAtom(t.path)), true
	}
}

var cmpOps = map[string]smt.CmpOp{
	"==": smt.OpEq, "!=": smt.OpNe, "<": smt.OpLt,
	"<=": smt.OpLe, ">": smt.OpGt, ">=": smt.OpGe,
}

func translateCmp(n *minij.Binary, env Env) (smt.Formula, bool) {
	op := cmpOps[n.Op]
	// Getter-vs-boolean-constant comparisons inline the getter side so
	// `l.isValid() == false` and `!l.isValid()` normalize identically.
	if op == smt.OpEq || op == smt.OpNe {
		if f, ok := cmpBoolInline(n.X, n.Y, op, env); ok {
			return f, true
		}
		if f, ok := cmpBoolInline(n.Y, n.X, op, env); ok {
			return f, true
		}
	}
	x, ok1 := translateTerm(n.X, env)
	y, ok2 := translateTerm(n.Y, env)
	if !ok1 || !ok2 {
		return nil, false
	}
	// Orient path-vs-const comparisons path-first.
	if x.isConst && y.isPath {
		x, y = y, x
		op = op.Flip()
	}
	switch {
	case x.isPath && y.isPath:
		return smt.NewAtom(smt.CmpVAtom(x.path, op, y.path)), true
	case x.isPath && y.isConst:
		return atomForPathConst(x.path, op, y.c)
	case x.isConst && y.isConst:
		return foldConstCmp(x.c, op, y.c)
	}
	return nil, false
}

// cmpBoolInline handles `getterCall (==|!=) boolConst` by inlining the
// getter body.
func cmpBoolInline(callSide, constSide minij.Expr, op smt.CmpOp, env Env) (smt.Formula, bool) {
	call, isCall := callSide.(*minij.Call)
	if !isCall {
		return nil, false
	}
	c, isConst := translateTerm(constSide, env)
	if !isConst || !c.isConst || c.c.Kind != minij.TypeBool {
		return nil, false
	}
	f, ok := inlineGetterBool(call, env)
	if !ok {
		return nil, false
	}
	if (op == smt.OpEq) == c.c.Bool {
		return f, true
	}
	return smt.NNF(smt.NewNot(f)), true
}

func atomForPathConst(path string, op smt.CmpOp, c ConstVal) (smt.Formula, bool) {
	switch c.Kind {
	case minij.TypeInt:
		return smt.NewAtom(smt.CmpCAtom(path, op, c.Int)), true
	case minij.TypeNull:
		switch op {
		case smt.OpEq:
			return smt.NewAtom(smt.NullAtom(path)), true
		case smt.OpNe:
			return smt.NewNot(smt.NewAtom(smt.NullAtom(path))), true
		}
		return nil, false
	case minij.TypeBool:
		if op != smt.OpEq && op != smt.OpNe {
			return nil, false
		}
		pos := (op == smt.OpEq) == c.Bool
		if pos {
			return smt.NewAtom(smt.BoolAtom(path)), true
		}
		return smt.NewNot(smt.NewAtom(smt.BoolAtom(path))), true
	case minij.TypeString:
		if op != smt.OpEq && op != smt.OpNe {
			return nil, false
		}
		return smt.NewAtom(smt.StrEqAtom(path, op, c.Str)), true
	}
	return nil, false
}

func foldConstCmp(a ConstVal, op smt.CmpOp, b ConstVal) (smt.Formula, bool) {
	if a.Kind != b.Kind {
		// null vs string etc. — only equality folds.
		if op == smt.OpEq {
			return smt.False(), true
		}
		if op == smt.OpNe {
			return smt.True(), true
		}
		return nil, false
	}
	var res bool
	switch a.Kind {
	case minij.TypeInt:
		switch op {
		case smt.OpEq:
			res = a.Int == b.Int
		case smt.OpNe:
			res = a.Int != b.Int
		case smt.OpLt:
			res = a.Int < b.Int
		case smt.OpLe:
			res = a.Int <= b.Int
		case smt.OpGt:
			res = a.Int > b.Int
		case smt.OpGe:
			res = a.Int >= b.Int
		}
	case minij.TypeBool:
		switch op {
		case smt.OpEq:
			res = a.Bool == b.Bool
		case smt.OpNe:
			res = a.Bool != b.Bool
		default:
			return nil, false
		}
	case minij.TypeString:
		switch op {
		case smt.OpEq:
			res = a.Str == b.Str
		case smt.OpNe:
			res = a.Str != b.Str
		default:
			return nil, false
		}
	case minij.TypeNull:
		switch op {
		case smt.OpEq:
			res = true
		case smt.OpNe:
			res = false
		default:
			return nil, false
		}
	}
	if res {
		return smt.True(), true
	}
	return smt.False(), true
}

// translateTerm resolves a term to a path or a constant.
func translateTerm(e minij.Expr, env Env) (symTerm, bool) {
	switch n := e.(type) {
	case *minij.IntLit:
		return symTerm{isConst: true, c: IntConst(n.Value)}, true
	case *minij.BoolLit:
		return symTerm{isConst: true, c: BoolConst(n.Value)}, true
	case *minij.StrLit:
		return symTerm{isConst: true, c: StrConst(n.Value)}, true
	case *minij.NullLit:
		return symTerm{isConst: true, c: NullConst()}, true
	case *minij.Unary:
		if n.Op == "-" {
			t, ok := translateTerm(n.X, env)
			if ok && t.isConst && t.c.Kind == minij.TypeInt {
				t.c.Int = -t.c.Int
				return t, true
			}
		}
		return symTerm{}, false
	case *minij.Ident:
		if p, ok := env.PathOf(n.Name); ok {
			return resolveConst(p, env), true
		}
		return symTerm{}, false
	case *minij.FieldAccess:
		base, ok := translateTerm(n.Recv, env)
		if !ok || !base.isPath {
			return symTerm{}, false
		}
		return resolveConst(base.path+"."+n.Name, env), true
	case *minij.Call:
		if n.Recv == nil || len(n.Args) != 0 {
			return symTerm{}, false
		}
		// A pure getter whose body is itself a term inlines directly
		// (s.isClosing() over `return closing;` becomes s.closing).
		if genv, body := inlineGetterEnv(n, env); genv != nil {
			if t, ok := translateTerm(body, genv); ok {
				return t, true
			}
		}
		// Otherwise the nullary call canonicalizes to a path
		// (s.isClosing() -> s.isClosing), per the predicate language.
		base, ok := translateTerm(n.Recv, env)
		if !ok || !base.isPath {
			return symTerm{}, false
		}
		return resolveConst(base.path+"."+n.Name, env), true
	}
	return symTerm{}, false
}

func resolveConst(path string, env Env) symTerm {
	if c, ok := env.ConstOf(path); ok {
		return symTerm{isConst: true, c: c}
	}
	return symTerm{isPath: true, path: path}
}

// LiteralConst extracts a ConstVal from a literal expression, if it is one.
func LiteralConst(e minij.Expr) (ConstVal, bool) {
	switch n := e.(type) {
	case *minij.IntLit:
		return IntConst(n.Value), true
	case *minij.BoolLit:
		return BoolConst(n.Value), true
	case *minij.StrLit:
		return StrConst(n.Value), true
	case *minij.NullLit:
		return NullConst(), true
	case *minij.Unary:
		if n.Op == "-" {
			if c, ok := LiteralConst(n.X); ok && c.Kind == minij.TypeInt {
				c.Int = -c.Int
				return c, true
			}
		}
	}
	return ConstVal{}, false
}

// FormatConst renders a constant for diagnostics.
func FormatConst(c ConstVal) string {
	switch c.Kind {
	case minij.TypeInt:
		return strconv.FormatInt(c.Int, 10)
	case minij.TypeBool:
		return strconv.FormatBool(c.Bool)
	case minij.TypeString:
		return strconv.Quote(c.Str)
	case minij.TypeNull:
		return "null"
	}
	return "<?const>"
}
