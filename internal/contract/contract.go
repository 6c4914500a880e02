// Package contract defines LISA's low-level semantics: the machine-checkable
// form that inferred rules take. Per §3.1 of the paper, a low-level semantic
// has two components: a concise natural-language description and a safety
// contract <P> s <Q>, where s is a target statement identified from a past
// bug fix and P, Q are conjunctions of implementation-local predicates over
// the program state.
//
// Two contract kinds exist:
//
//   - State contracts bind predicate slots at a target statement (e.g.
//     "<session.isClosing == false> createEphemeralNode <>") and are checked
//     against path conditions with the complement construction.
//   - Structural contracts capture generalized system-level behaviors (e.g.
//     "no blocking I/O within synchronized blocks", the Figure 6
//     generalization) and are checked against program structure and runtime
//     events.
package contract

import (
	"fmt"
	"sort"
	"strings"

	"lisa/internal/minij"
	"lisa/internal/smt"
)

// Kind discriminates contract representations.
type Kind int

// Contract kinds.
const (
	StateKind Kind = iota
	StructuralKind
)

// String names the kind.
func (k Kind) String() string {
	if k == StructuralKind {
		return "structural"
	}
	return "state"
}

// Semantic is one low-level semantic.
type Semantic struct {
	// ID is a stable identifier, e.g. "zk-ephemeral-closing".
	ID string
	// Description is the concise natural-language low-level semantic.
	Description string
	// HighLevel is the system-level property this semantic protects.
	HighLevel string
	// Origin lists the failure tickets the semantic was inferred from.
	Origin []string

	Kind Kind

	// Target locates the statement s of the safety contract (state
	// contracts only).
	Target TargetPattern
	// Pre is the condition statement P over slot-rooted paths: the
	// predicate that must hold whenever the target statement executes.
	Pre smt.Formula
	// Post is the optional postcondition Q.
	Post smt.Formula

	// Structural is set for StructuralKind semantics.
	Structural *LockRule
}

// Validate checks internal consistency: state contracts must have a target
// and a precondition whose roots are all bound by the target pattern.
func (s *Semantic) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("contract: semantic without ID")
	}
	switch s.Kind {
	case StructuralKind:
		if s.Structural == nil {
			return fmt.Errorf("contract %s: structural kind without rule", s.ID)
		}
		return nil
	case StateKind:
		if s.Target.Callee == "" {
			return fmt.Errorf("contract %s: state kind without target callee", s.ID)
		}
		if s.Pre == nil {
			return fmt.Errorf("contract %s: state kind without precondition", s.ID)
		}
		bound := map[string]bool{}
		for slot := range s.Target.Bind {
			bound[slot] = true
		}
		for root := range smt.Roots(s.Pre) {
			if !bound[root] {
				return fmt.Errorf("contract %s: precondition root %q is not bound by the target pattern", s.ID, root)
			}
		}
		return nil
	}
	return fmt.Errorf("contract %s: unknown kind %d", s.ID, s.Kind)
}

// String renders the safety contract in the paper's <P> s <Q> notation.
func (s *Semantic) String() string {
	if s.Kind == StructuralKind {
		return fmt.Sprintf("[%s] structural: %s", s.ID, s.Structural.Name())
	}
	post := ""
	if s.Post != nil {
		post = s.Post.String()
	}
	return fmt.Sprintf("[%s] <%s> %s <%s>", s.ID, s.Pre, s.Target.Callee, post)
}

// TargetPattern locates target statements: calls to a given callee method,
// optionally restricted to an enclosing method, with slot bindings mapping
// predicate roots to call operands.
type TargetPattern struct {
	// Callee is the qualified method the target statement calls, e.g.
	// "DataTree.createEphemeral".
	Callee string
	// Within optionally restricts matches to statements inside the given
	// "Class.method"; empty matches anywhere.
	Within string
	// Bind maps slot names used in Pre/Post to operands of the matched
	// call: argument index >= 0, or ReceiverSlot for the call's receiver.
	Bind map[string]int
}

// ReceiverSlot binds a slot to the call receiver expression.
const ReceiverSlot = -1

// Site is a matched target statement occurrence.
type Site struct {
	Semantic *Semantic
	Stmt     minij.Stmt
	Call     *minij.Call
	Method   *minij.Method // enclosing method
	// Bindings maps slot name -> operand expression.
	Bindings map[string]minij.Expr
	// BindErr records why slot binding failed (complex operand), if it did.
	BindErr error
}

// String renders the site location.
func (st *Site) String() string {
	return fmt.Sprintf("%s @%s (%s)", st.Method.FullName(), st.Stmt.Pos(), minij.CanonStmt(st.Stmt))
}

// ExprPath converts an access-chain expression to a dotted path: an
// identifier, a chain of field accesses, or a nullary method call in getter
// position. Non-chain expressions are not path-convertible.
func ExprPath(e minij.Expr) (string, bool) {
	switch n := e.(type) {
	case *minij.Ident:
		return n.Name, true
	case *minij.FieldAccess:
		base, ok := ExprPath(n.Recv)
		if !ok {
			return "", false
		}
		return base + "." + n.Name, true
	case *minij.Call:
		if n.Recv == nil || len(n.Args) != 0 {
			return "", false
		}
		base, ok := ExprPath(n.Recv)
		if !ok {
			return "", false
		}
		return base + "." + n.Name, true
	}
	return "", false
}

// Match finds every target-statement occurrence of sem in prog. The program
// must be resolved. Matching keys on the callee's qualified name (receiver
// static type for instance calls, class name for static calls), so renamed
// locals and new call paths still match — this is what lets a rule inferred
// from one fix catch the same mistake on a different path. Match indexes
// the program's calls for one lookup; a caller matching several rules over
// one program builds the CallIndex once.
func Match(sem *Semantic, prog *minij.Program) []*Site {
	return IndexCalls(prog, nil).Sites(sem)
}

// CallIndex holds a program's call occurrences by the qualified name of
// their callee, each callee's in program order. It is read-only once
// built, so concurrent lookups need no lock.
type CallIndex struct {
	byCallee map[string][]callOcc
}

// callOcc is one call in one statement of one method.
type callOcc struct {
	method *minij.Method
	stmt   minij.Stmt
	call   *minij.Call
}

// IndexCalls indexes the calls of every method of the resolved prog that
// keep accepts (every method when keep is nil).
func IndexCalls(prog *minij.Program, keep func(*minij.Method) bool) *CallIndex {
	ix := &CallIndex{byCallee: map[string][]callOcc{}}
	for _, m := range prog.Methods() {
		if keep != nil && !keep(m) {
			continue
		}
		minij.WalkStmts(m.Body, func(s minij.Stmt) {
			for _, call := range minij.OwnCalls(s) {
				name := CalleeName(m, call)
				ix.byCallee[name] = append(ix.byCallee[name], callOcc{method: m, stmt: s, call: call})
			}
		})
	}
	return ix
}

// Sites returns sem's target-statement occurrences among the indexed
// calls, ordered by enclosing method name and then by position.
func (ix *CallIndex) Sites(sem *Semantic) []*Site {
	if sem.Kind != StateKind {
		return nil
	}
	var sites []*Site
	for _, oc := range ix.byCallee[sem.Target.Callee] {
		if sem.Target.Within != "" && oc.method.FullName() != sem.Target.Within {
			continue
		}
		call := oc.call
		site := &Site{
			Semantic: sem,
			Stmt:     oc.stmt,
			Call:     call,
			Method:   oc.method,
			Bindings: map[string]minij.Expr{},
		}
		for slot, idx := range sem.Target.Bind {
			var operand minij.Expr
			switch {
			case idx == ReceiverSlot:
				operand = call.Recv
			case idx >= 0 && idx < len(call.Args):
				operand = call.Args[idx]
			}
			if operand == nil {
				site.BindErr = fmt.Errorf("contract %s: slot %q binds operand %d of %s, which does not exist",
					sem.ID, slot, idx, minij.CanonExpr(call))
				continue
			}
			site.Bindings[slot] = operand
		}
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].Method.FullName() != sites[j].Method.FullName() {
			return sites[i].Method.FullName() < sites[j].Method.FullName()
		}
		return sites[i].Stmt.Pos().Before(sites[j].Stmt.Pos())
	})
	return sites
}

// CalleeName resolves the qualified "Class.method" name a call refers to,
// or "" when unresolvable. caller is the enclosing method (for unqualified
// sibling calls).
func CalleeName(caller *minij.Method, call *minij.Call) string {
	switch call.Kind {
	case minij.CallSelf:
		return caller.Class.Name + "." + call.Name
	case minij.CallStatic:
		if id, ok := call.Recv.(*minij.Ident); ok {
			return id.Name + "." + call.Name
		}
	case minij.CallInstance:
		if call.RecvType.Kind == minij.TypeObject {
			return call.RecvType.Class + "." + call.Name
		}
	case minij.CallBuiltin:
		return "builtin." + call.Name
	}
	return ""
}

// Registry is an ordered collection of semantics, the "executable contract"
// store that a CI/CD pipeline enforces.
type Registry struct {
	sems []*Semantic
	byID map[string]*Semantic
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]*Semantic{}}
}

// Add validates and registers a semantic. Re-adding an existing ID replaces
// the previous version (a refined rule supersedes the old one).
func (r *Registry) Add(s *Semantic) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if old, ok := r.byID[s.ID]; ok {
		for i, e := range r.sems {
			if e == old {
				r.sems[i] = s
				break
			}
		}
	} else {
		r.sems = append(r.sems, s)
	}
	r.byID[s.ID] = s
	return nil
}

// Get returns the semantic with the given ID, or nil.
func (r *Registry) Get(id string) *Semantic { return r.byID[id] }

// All returns the registered semantics in registration order.
func (r *Registry) All() []*Semantic {
	out := make([]*Semantic, len(r.sems))
	copy(out, r.sems)
	return out
}

// Len returns the number of registered semantics.
func (r *Registry) Len() int { return len(r.sems) }

// Summary renders a short multi-line listing.
func (r *Registry) Summary() string {
	var sb strings.Builder
	for _, s := range r.sems {
		sb.WriteString(s.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
