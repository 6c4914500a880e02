// Package smt implements the restricted predicate logic LISA uses for
// low-level semantics, together with a small decision procedure that plays
// the role Z3 plays in the paper.
//
// The paper restricts contract conditions P, Q to conjunctions of
// implementation-local predicates — state relations (v = c), null-ness, and
// resource predicates (handle.isOpen). This package supports the
// quantifier-free closure of those atoms under !, &&, ||, which is exactly
// what recorded path conditions and checker complements need:
//
//	atom := path                      (boolean state predicate)
//	      | path == null | path != null
//	      | path OP intconst | path OP path      (OP in == != < <= > >=)
//	      | path == "string" | path != "string"
//
// Paths are dotted access chains rooted at a variable, e.g. "s.ttl" or
// "s.isClosing" (a nullary getter canonicalizes to its path form).
//
// Satisfiability is decided by DPLL over the atom alphabet with a theory
// check per candidate assignment: integer atoms go through a
// difference-bound matrix (Floyd–Warshall) with a disequality pass, string
// atoms through equality/disequality sets. The procedure is complete for
// the corpus fragment except for pathological integer disequality chains,
// where it errs on the SAT side (never reports UNSAT for a satisfiable
// formula).
package smt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// CmpOp is a comparison operator in an atom.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opText = map[CmpOp]string{
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

// String renders the operator in source syntax.
func (op CmpOp) String() string { return opText[op] }

// Negate returns the complementary operator (total on the six operators).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	panic("smt: bad CmpOp")
}

// Flip returns the operator with operands swapped (x op y == y flip(op) x).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// AtomKind enumerates atom shapes.
type AtomKind int

// Atom kinds.
const (
	AtomBool  AtomKind = iota // path (a boolean state predicate)
	AtomNull                  // path == null
	AtomCmpC                  // path OP intconst
	AtomCmpV                  // path OP path
	AtomStrEq                 // path == "string"
)

// Atom is an atomic predicate.
type Atom struct {
	Kind   AtomKind
	Path   string
	Op     CmpOp  // CmpC, CmpV, StrEq
	IntVal int64  // CmpC
	StrVal string // StrEq
	Path2  string // CmpV
}

// BoolAtom returns the boolean state predicate for path.
func BoolAtom(path string) Atom { return Atom{Kind: AtomBool, Path: path} }

// NullAtom returns the predicate "path == null".
func NullAtom(path string) Atom { return Atom{Kind: AtomNull, Path: path} }

// CmpCAtom returns the predicate "path op c".
func CmpCAtom(path string, op CmpOp, c int64) Atom {
	return Atom{Kind: AtomCmpC, Path: path, Op: op, IntVal: c}
}

// CmpVAtom returns the predicate "path op path2".
func CmpVAtom(path string, op CmpOp, path2 string) Atom {
	return Atom{Kind: AtomCmpV, Path: path, Op: op, Path2: path2}
}

// StrEqAtom returns the predicate `path op "s"` (op is OpEq or OpNe).
func StrEqAtom(path string, op CmpOp, s string) Atom {
	return Atom{Kind: AtomStrEq, Path: path, Op: op, StrVal: s}
}

// String renders the atom in predicate-language syntax.
func (a Atom) String() string {
	switch a.Kind {
	case AtomBool:
		return a.Path
	case AtomNull:
		return a.Path + " == null"
	case AtomCmpC:
		return a.Path + " " + a.Op.String() + " " + strconv.FormatInt(a.IntVal, 10)
	case AtomCmpV:
		return a.Path + " " + a.Op.String() + " " + a.Path2
	case AtomStrEq:
		return a.Path + " " + a.Op.String() + " " + strconv.Quote(a.StrVal)
	}
	return "<?atom>"
}

// Key returns a canonical identity for the atom's underlying proposition,
// folding a negatable operator into a fixed polarity so "x != 3" and
// "x == 3" share a DPLL variable. It returns the key and whether the atom
// as written is the negation of the keyed proposition. The key renders
// normalize's proposition, so two atoms share a key exactly when they
// normalize to equal values, and the solver identifies a proposition by
// that value without rendering its key.
func (a Atom) Key() (string, bool) {
	n, neg := a.normalize()
	switch n.Kind {
	case AtomBool:
		return "b:" + n.Path, neg
	case AtomNull:
		return "n:" + n.Path, neg
	case AtomCmpC:
		return "c:" + n.Path + " " + n.Op.String() + " " + strconv.FormatInt(n.IntVal, 10), neg
	case AtomCmpV:
		return "v:" + n.Path + " " + n.Op.String() + " " + n.Path2, neg
	case AtomStrEq:
		return "s:" + n.Path + " == " + strconv.Quote(n.StrVal), neg
	}
	return "<?>", false
}

// normalize returns a's keyed proposition, with the fields its kind does
// not use zeroed, and whether a as written is that proposition's negation.
func (a Atom) normalize() (Atom, bool) {
	switch a.Kind {
	case AtomBool, AtomNull:
		return Atom{Kind: a.Kind, Path: a.Path}, false
	case AtomCmpC:
		op, neg := a.Op.keyed()
		return Atom{Kind: AtomCmpC, Path: a.Path, Op: op, IntVal: a.IntVal}, neg
	case AtomCmpV:
		p1, p2, op := a.Path, a.Path2, a.Op
		if p2 < p1 {
			p1, p2 = p2, p1
			op = op.Flip()
		}
		op, neg := op.keyed()
		return Atom{Kind: AtomCmpV, Path: p1, Op: op, Path2: p2}, neg
	case AtomStrEq:
		return Atom{Kind: AtomStrEq, Path: a.Path, Op: OpEq, StrVal: a.StrVal}, a.Op == OpNe
	}
	return a, false
}

// keyed folds a negatable operator into the fixed polarity Key uses.
func (op CmpOp) keyed() (CmpOp, bool) {
	switch op {
	case OpNe:
		return OpEq, true
	case OpGt:
		return OpLe, true
	case OpGe:
		return OpLt, true
	}
	return op, false
}

// Root returns the root variable of a dotted path.
func Root(path string) string {
	if i := strings.IndexByte(path, '.'); i >= 0 {
		return path[:i]
	}
	return path
}

// Formula is a quantifier-free predicate formula. Implementations: *AtomF,
// *Not, *And, *Or, *Const.
type Formula interface {
	fmt.Stringer
	formulaNode()
}

// AtomF wraps an atom as a formula.
type AtomF struct{ Atom Atom }

// Not negates a formula.
type Not struct{ X Formula }

// And is an n-ary conjunction.
type And struct{ Xs []Formula }

// Or is an n-ary disjunction.
type Or struct{ Xs []Formula }

// Const is a boolean constant formula.
type Const struct{ Value bool }

func (*AtomF) formulaNode() {}
func (*Not) formulaNode()   {}
func (*And) formulaNode()   {}
func (*Or) formulaNode()    {}
func (*Const) formulaNode() {}

// True returns the constant true formula.
func True() Formula { return &Const{Value: true} }

// False returns the constant false formula.
func False() Formula { return &Const{Value: false} }

// NewAtom wraps an atom.
func NewAtom(a Atom) Formula { return &AtomF{Atom: a} }

// NewNot negates f, collapsing double negation and constants.
func NewNot(f Formula) Formula {
	switch n := f.(type) {
	case *Const:
		return &Const{Value: !n.Value}
	case *Not:
		return n.X
	}
	return &Not{X: f}
}

// NewAnd conjoins formulas, flattening nested conjunctions and folding
// constants. An empty conjunction is true.
func NewAnd(fs ...Formula) Formula {
	n := 0
	for _, f := range fs {
		switch x := f.(type) {
		case *Const:
			if !x.Value {
				return False()
			}
		case *And:
			n += len(x.Xs)
		default:
			n++
		}
	}
	if n <= 1 {
		// At most one formula: a constant is the identity, and a nested
		// conjunction holds the one formula or none.
		for _, f := range fs {
			switch x := f.(type) {
			case *Const:
			case *And:
				if len(x.Xs) == 1 {
					return x.Xs[0]
				}
			default:
				return f
			}
		}
		return True()
	}
	xs := make([]Formula, 0, n)
	for _, f := range fs {
		switch x := f.(type) {
		case *Const:
		case *And:
			xs = append(xs, x.Xs...)
		default:
			xs = append(xs, f)
		}
	}
	return &And{Xs: xs}
}

// NewOr disjoins formulas, flattening nested disjunctions and folding
// constants. An empty disjunction is false.
func NewOr(fs ...Formula) Formula {
	n := 0
	for _, f := range fs {
		switch x := f.(type) {
		case *Const:
			if x.Value {
				return True()
			}
		case *Or:
			n += len(x.Xs)
		default:
			n++
		}
	}
	if n <= 1 {
		for _, f := range fs {
			switch x := f.(type) {
			case *Const:
			case *Or:
				if len(x.Xs) == 1 {
					return x.Xs[0]
				}
			default:
				return f
			}
		}
		return False()
	}
	xs := make([]Formula, 0, n)
	for _, f := range fs {
		switch x := f.(type) {
		case *Const:
		case *Or:
			xs = append(xs, x.Xs...)
		default:
			xs = append(xs, f)
		}
	}
	return &Or{Xs: xs}
}

// String renders the formula in predicate-language syntax.
func (f *AtomF) String() string { return f.Atom.String() }

// String renders the negation; atoms with negatable operators render
// operator-folded ("x == 3" negated renders "x != 3").
func (f *Not) String() string {
	if a, ok := f.X.(*AtomF); ok {
		switch a.Atom.Kind {
		case AtomNull:
			return a.Atom.Path + " != null"
		case AtomCmpC, AtomCmpV, AtomStrEq:
			n := a.Atom
			n.Op = n.Op.Negate()
			return n.String()
		}
	}
	return "!(" + f.X.String() + ")"
}

// String renders the conjunction.
func (f *And) String() string {
	parts := make([]string, len(f.Xs))
	for i, x := range f.Xs {
		if _, isOr := x.(*Or); isOr {
			parts[i] = "(" + x.String() + ")"
		} else {
			parts[i] = x.String()
		}
	}
	return strings.Join(parts, " && ")
}

// AndRender renders NewAnd over n conjuncts byte for byte, from renders
// the caller already holds, without building the conjunction: conjunct(i)
// returns the i-th conjunct and its String(), and may be called twice for
// one i. No conjunct may be a constant, which NewAnd would fold.
func AndRender(n int, conjunct func(i int) (Formula, string)) string {
	switch n {
	case 0:
		return "true"
	case 1:
		_, text := conjunct(0)
		return text
	}
	size := (n - 1) * len(" && ")
	for i := 0; i < n; i++ {
		f, text := conjunct(i)
		size += len(text)
		if _, isOr := f.(*Or); isOr {
			size += len("()")
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(" && ")
		}
		// A nested conjunction's render is its conjuncts' renders joined,
		// which is what NewAnd's flattening renders, so only a disjunction
		// needs its parentheses here.
		f, text := conjunct(i)
		if _, isOr := f.(*Or); isOr {
			sb.WriteByte('(')
			sb.WriteString(text)
			sb.WriteByte(')')
		} else {
			sb.WriteString(text)
		}
	}
	return sb.String()
}

// String renders the disjunction.
func (f *Or) String() string {
	parts := make([]string, len(f.Xs))
	for i, x := range f.Xs {
		parts[i] = x.String()
	}
	return strings.Join(parts, " || ")
}

// String renders the constant.
func (f *Const) String() string {
	if f.Value {
		return "true"
	}
	return "false"
}

// NNF rewrites f into negation normal form, pushing negations onto atoms and
// folding negated comparisons into their complementary operators.
func NNF(f Formula) Formula {
	return nnf(f, false)
}

func nnf(f Formula, neg bool) Formula {
	switch n := f.(type) {
	case *Const:
		return &Const{Value: n.Value != neg}
	case *AtomF:
		if !neg {
			return n
		}
		a := n.Atom
		switch a.Kind {
		case AtomCmpC, AtomCmpV, AtomStrEq:
			a.Op = a.Op.Negate()
			return &AtomF{Atom: a}
		default:
			return &Not{X: n}
		}
	case *Not:
		return nnf(n.X, !neg)
	case *And:
		xs := make([]Formula, len(n.Xs))
		for i, x := range n.Xs {
			xs[i] = nnf(x, neg)
		}
		if neg {
			return NewOr(xs...)
		}
		return NewAnd(xs...)
	case *Or:
		xs := make([]Formula, len(n.Xs))
		for i, x := range n.Xs {
			xs[i] = nnf(x, neg)
		}
		if neg {
			return NewAnd(xs...)
		}
		return NewOr(xs...)
	}
	panic(fmt.Sprintf("smt: unhandled formula %T", f))
}

// Complement returns the paper's checker complement: the negation of f in
// negation normal form. A trace violates a semantic exactly when its path
// condition is satisfiable together with the complement of the checker
// formula (missing conditions are unconstrained, hence "treated as true").
func Complement(f Formula) Formula { return NNF(NewNot(f)) }

// Atoms returns the distinct atoms of f keyed by canonical proposition, in
// deterministic order.
func Atoms(f Formula) []Atom {
	seen := map[string]Atom{}
	var keys []string
	VisitAtoms(f, func(a Atom) bool {
		k, _ := a.Key()
		if _, ok := seen[k]; !ok {
			seen[k], _ = a.normalize()
			keys = append(keys, k)
		}
		return true
	})
	sort.Strings(keys)
	out := make([]Atom, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// VisitAtoms calls visit for every atom occurrence in f (duplicates
// included, no canonicalization) until visit returns false. Unlike Atoms it
// allocates nothing, so hot paths can scan formulas per candidate state.
func VisitAtoms(f Formula, visit func(Atom) bool) bool {
	switch n := f.(type) {
	case *AtomF:
		return visit(n.Atom)
	case *Not:
		return VisitAtoms(n.X, visit)
	case *And:
		for _, x := range n.Xs {
			if !VisitAtoms(x, visit) {
				return false
			}
		}
	case *Or:
		for _, x := range n.Xs {
			if !VisitAtoms(x, visit) {
				return false
			}
		}
	}
	return true
}

// Paths returns the set of dotted paths mentioned anywhere in f.
func Paths(f Formula) map[string]bool {
	out := map[string]bool{}
	for _, a := range Atoms(f) {
		out[a.Path] = true
		if a.Kind == AtomCmpV {
			out[a.Path2] = true
		}
	}
	return out
}

// Roots returns the set of root variables mentioned anywhere in f.
func Roots(f Formula) map[string]bool {
	out := map[string]bool{}
	for p := range Paths(f) {
		out[Root(p)] = true
	}
	return out
}

// RenameRoot returns f with every path rooted at old re-rooted at new.
func RenameRoot(f Formula, old, new string) Formula {
	ren := func(p string) string {
		if p == old {
			return new
		}
		if strings.HasPrefix(p, old+".") {
			return new + p[len(old):]
		}
		return p
	}
	return MapAtoms(f, func(a Atom) Atom {
		a.Path = ren(a.Path)
		if a.Kind == AtomCmpV {
			a.Path2 = ren(a.Path2)
		}
		return a
	})
}

// MapAtoms returns f with fn applied to every atom.
func MapAtoms(f Formula, fn func(Atom) Atom) Formula {
	switch n := f.(type) {
	case *Const:
		return n
	case *AtomF:
		return &AtomF{Atom: fn(n.Atom)}
	case *Not:
		return &Not{X: MapAtoms(n.X, fn)}
	case *And:
		xs := make([]Formula, len(n.Xs))
		for i, x := range n.Xs {
			xs[i] = MapAtoms(x, fn)
		}
		return &And{Xs: xs}
	case *Or:
		xs := make([]Formula, len(n.Xs))
		for i, x := range n.Xs {
			xs[i] = MapAtoms(x, fn)
		}
		return &Or{Xs: xs}
	}
	panic(fmt.Sprintf("smt: unhandled formula %T", f))
}
