package minij

import "fmt"

// TypeKind enumerates the MiniJ type constructors.
type TypeKind int

// Type kinds.
const (
	TypeVoid TypeKind = iota
	TypeInt
	TypeBool
	TypeString
	TypeList
	TypeMap
	TypeObject // class type; Class holds the class name
	TypeNull   // the type of the null literal (assignable to any reference)
	TypeAny    // statically unknown (container elements); checked at runtime
)

// Type is a MiniJ static type.
type Type struct {
	Kind  TypeKind
	Class string // set when Kind == TypeObject
}

// String renders the type in source syntax.
func (t Type) String() string {
	switch t.Kind {
	case TypeVoid:
		return "void"
	case TypeInt:
		return "int"
	case TypeBool:
		return "bool"
	case TypeString:
		return "string"
	case TypeList:
		return "list"
	case TypeMap:
		return "map"
	case TypeObject:
		return t.Class
	case TypeNull:
		return "null"
	case TypeAny:
		return "any"
	}
	return fmt.Sprintf("Type(%d)", int(t.Kind))
}

// IsRef reports whether values of this type may be null.
func (t Type) IsRef() bool {
	switch t.Kind {
	case TypeList, TypeMap, TypeObject, TypeString, TypeNull:
		return true
	}
	return false
}

// Program is a parsed MiniJ compilation unit: a set of classes.
type Program struct {
	Classes []*Class

	byName     map[string]*Class
	stmts      []Stmt    // all statements, indexed by ID
	stmtMethod []*Method // enclosing method per statement ID
}

// MethodOf returns the method whose body contains the statement with the
// given ID, or nil if the ID is out of range.
func (p *Program) MethodOf(id int) *Method {
	if id < 0 || id >= len(p.stmtMethod) {
		return nil
	}
	return p.stmtMethod[id]
}

// Class looks up a class by name, returning nil when absent.
func (p *Program) Class(name string) *Class {
	return p.byName[name]
}

// Method looks up "Class.method", returning nil when absent.
func (p *Program) Method(class, name string) *Method {
	c := p.Class(class)
	if c == nil {
		return nil
	}
	return c.Method(name)
}

// NumStmts returns the number of statements in the program. Statement IDs
// are dense in [0, NumStmts).
func (p *Program) NumStmts() int { return len(p.stmts) }

// StmtByID returns the statement with the given ID, or nil if out of range.
func (p *Program) StmtByID(id int) Stmt {
	if id < 0 || id >= len(p.stmts) {
		return nil
	}
	return p.stmts[id]
}

// Methods returns every method in the program in declaration order.
func (p *Program) Methods() []*Method {
	var ms []*Method
	for _, c := range p.Classes {
		ms = append(ms, c.Methods...)
	}
	return ms
}

// Class is a MiniJ class declaration.
type Class struct {
	Name    string
	Fields  []*Field
	Methods []*Method
	DeclPos Pos

	fieldsByName  map[string]*Field
	methodsByName map[string]*Method
}

// Field looks up a declared field by name, returning nil when absent.
func (c *Class) Field(name string) *Field {
	return c.fieldsByName[name]
}

// Method looks up a declared method by name, returning nil when absent.
func (c *Class) Method(name string) *Method {
	return c.methodsByName[name]
}

// Field is a class field declaration.
type Field struct {
	Name    string
	Type    Type
	DeclPos Pos
}

// Param is a method parameter.
type Param struct {
	Name string
	Type Type
}

// Method is a MiniJ method declaration.
type Method struct {
	Class   *Class
	Name    string
	Static  bool
	Ret     Type
	Params  []*Param
	Body    *Block
	DeclPos Pos
}

// FullName returns the "Class.method" qualified name.
func (m *Method) FullName() string { return m.Class.Name + "." + m.Name }

// Stmt is the interface implemented by all statement nodes. Every statement
// carries a program-unique dense ID (assigned by the parser) used for
// coverage tracking and target-statement matching, plus its source position.
type Stmt interface {
	Pos() Pos
	ID() int
	setID(int)
	stmtNode()
}

type stmtBase struct {
	pos Pos
	id  int
}

func (s *stmtBase) Pos() Pos    { return s.pos }
func (s *stmtBase) ID() int     { return s.id }
func (s *stmtBase) setID(n int) { s.id = n }
func (s *stmtBase) stmtNode()   {}

// Block is a brace-delimited statement sequence.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// VarDecl declares a local variable with an optional initializer.
type VarDecl struct {
	stmtBase
	Type Type
	Name string
	Init Expr // may be nil
}

// Assign assigns Value to Target (an *Ident or *FieldAccess).
type Assign struct {
	stmtBase
	Target Expr
	Value  Expr
}

// If is a conditional. Else may be nil, a *Block, or another *If (else-if).
type If struct {
	stmtBase
	Cond Expr
	Then *Block
	Else Stmt
}

// While is a condition-controlled loop.
type While struct {
	stmtBase
	Cond Expr
	Body *Block
}

// For is a classic three-clause loop; any clause may be nil.
type For struct {
	stmtBase
	Init Stmt // *VarDecl or *Assign, may be nil
	Cond Expr // may be nil (infinite)
	Post Stmt // *Assign or *ExprStmt, may be nil
	Body *Block
}

// ForEach iterates Var over the elements of a list expression.
type ForEach struct {
	stmtBase
	Var  string
	Iter Expr
	Body *Block
}

// Return exits the enclosing method; Value may be nil for void returns.
type Return struct {
	stmtBase
	Value Expr
}

// Break exits the innermost loop.
type Break struct{ stmtBase }

// Continue advances the innermost loop.
type Continue struct{ stmtBase }

// Throw raises a string-valued exception.
type Throw struct {
	stmtBase
	Value Expr
}

// Try runs Body; if an exception propagates, CatchVar is bound to its string
// value and Catch runs.
type Try struct {
	stmtBase
	Body     *Block
	CatchVar string
	Catch    *Block
}

// Sync is a synchronized block over a lock expression.
type Sync struct {
	stmtBase
	Lock Expr
	Body *Block
}

// ExprStmt evaluates an expression (a call) for its effects.
type ExprStmt struct {
	stmtBase
	E Expr
}

// Expr is the interface implemented by all expression nodes.
type Expr interface {
	Pos() Pos
	exprNode()
}

type exprBase struct{ pos Pos }

func (e *exprBase) Pos() Pos  { return e.pos }
func (e *exprBase) exprNode() {}

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
}

// BoolLit is true or false.
type BoolLit struct {
	exprBase
	Value bool
}

// StrLit is a string literal.
type StrLit struct {
	exprBase
	Value string
}

// NullLit is the null literal.
type NullLit struct{ exprBase }

// Ident is a bare name: a local, parameter, field of the receiver, or (as a
// call/field receiver) a class name.
type Ident struct {
	exprBase
	Name string
}

// FieldAccess reads field Name of Recv.
type FieldAccess struct {
	exprBase
	Recv Expr
	Name string
}

// Call invokes method Name. Recv may be nil (builtin, or method of the
// enclosing class), an *Ident naming a class (static call), or an object
// expression (instance call). The resolver sets Kind, and RecvType on an
// instance call: the static type of its receiver, which call-graph edges,
// callee names and getter inlining dispatch on.
type Call struct {
	exprBase
	Recv Expr
	Name string
	Args []Expr

	Kind     CallKind // set by Resolve
	RecvType Type     // set by Resolve when Kind is CallInstance
}

// CallKind classifies a call after resolution.
type CallKind int

// Call kinds.
const (
	CallUnresolved CallKind = iota
	CallBuiltin             // builtin function (Recv nil)
	CallStatic              // static method; Recv is *Ident naming the class
	CallInstance            // instance method on an object value
	CallSelf                // unqualified call to a method of the enclosing class
)

// New constructs an instance of a class, invoking its init method if one is
// declared.
type New struct {
	exprBase
	Class string
	Args  []Expr
}

// Unary applies "!" or unary "-".
type Unary struct {
	exprBase
	Op string
	X  Expr
}

// Binary applies a binary operator.
type Binary struct {
	exprBase
	Op   string
	X, Y Expr
}
