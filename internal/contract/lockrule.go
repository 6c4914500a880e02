package contract

import (
	"fmt"
	"sort"

	"lisa/internal/callgraph"
	"lisa/internal/interp"
	"lisa/internal/minij"
)

// Hazard is what a LockRule forbids while a synchronized block is held.
type Hazard int

// Hazards.
const (
	// BlockingIO is a call to a blocking builtin: the paper's Figure 6
	// generalization, "no blocking I/O within synchronized blocks".
	BlockingIO Hazard = iota
	// NestedLock is entering another synchronized block, the classic
	// lock-ordering deadlock risk: the framework reaches beyond the
	// paper's example.
	NestedLock
)

// Rule names the hazard's rule in specs and findings.
func (h Hazard) Rule() string {
	if h == NestedLock {
		return "no-nested-sync"
	}
	return "no-blocking-io-in-sync"
}

// syncLink is the witness of the NestedLock hazard, in findings and chains.
const syncLink = "synchronized"

// LockRule is a structural semantic: a generalized, pattern-level behavior
// class abstracted from a site-specific rule (§3.1, Figure 6). It forbids
// its hazard while a synchronized block is held, on any path. The rule
// checks program structure, and a LockMonitor confirms its findings at
// runtime.
type LockRule struct {
	Hazard Hazard
	// Only, when non-empty, restricts findings to synchronized blocks
	// inside the named methods ("Class.method"): the literal,
	// non-generalized form of the rule that the Figure 6 ablation
	// compares against.
	Only map[string]bool
}

// LockRuleNamed returns the program-wide rule that a spec names.
func LockRuleNamed(name string) (*LockRule, bool) {
	for _, h := range []Hazard{BlockingIO, NestedLock} {
		if h.Rule() == name {
			return &LockRule{Hazard: h}, true
		}
	}
	return nil, false
}

// Name identifies the rule; a scoped rule says so.
func (r *LockRule) Name() string {
	if len(r.Only) > 0 {
		return r.Hazard.Rule() + "(scoped)"
	}
	return r.Hazard.Rule()
}

// Scope returns the Only methods, sorted.
func (r *LockRule) Scope() []string {
	names := make([]string, 0, len(r.Only))
	for m := range r.Only {
		names = append(names, m)
	}
	sort.Strings(names)
	return names
}

// StructuralViolation is one static finding of a LockRule.
type StructuralViolation struct {
	Rule    string
	Method  *minij.Method // method lexically containing the synchronized block
	Stmt    minij.Stmt    // offending statement
	Builtin string        // hazard ultimately reached
	// Chain is the call chain from the synchronized block to the hazard;
	// length 1 means the hazard is lexically inside the block.
	Chain []string
}

// String renders the violation.
func (v *StructuralViolation) String() string {
	return fmt.Sprintf("%s: %s @%s blocks on %s via %v",
		v.Rule, v.Method.FullName(), v.Stmt.Pos(), v.Builtin, v.Chain)
}

// Check statically scans a resolved program with an interprocedural
// may-hazard analysis: a method may run the hazard if it does so itself or
// (transitively) calls a method that may. Every statement inside a
// synchronized block that runs the hazard itself, or calls a may-hazard
// method, is a finding, whose chain witnesses one call path to the hazard.
// Only a method's outermost synchronized blocks are walked, so a statement
// inside nested blocks is reported once.
func (r *LockRule) Check(prog *minij.Program) []*StructuralViolation {
	g := callgraph.Build(prog)

	// own maps each method that runs the hazard itself, anywhere in its
	// body, to the last link of its witness chain.
	own := map[*minij.Method]string{}
	for _, m := range prog.Methods() {
		if link := r.Hazard.ownLink(m.Body); link != "" {
			own[m] = link
		}
	}

	may := map[*minij.Method]bool{}
	for m := range own {
		may[m] = true
	}
	for changed := true; changed; {
		changed = false
		for _, m := range prog.Methods() {
			if may[m] {
				continue
			}
			for _, e := range g.Callees[m] {
				if may[e.Callee] {
					may[m] = true
					changed = true
					break
				}
			}
		}
	}

	// chain finds a call chain from m to the hazard.
	var chain func(m *minij.Method, seen map[*minij.Method]bool) []string
	chain = func(m *minij.Method, seen map[*minij.Method]bool) []string {
		if link, ok := own[m]; ok {
			return []string{m.FullName(), link}
		}
		seen[m] = true
		for _, e := range g.Callees[m] {
			if seen[e.Callee] || !may[e.Callee] {
				continue
			}
			if c := chain(e.Callee, seen); c != nil {
				return append([]string{m.FullName()}, c...)
			}
		}
		return nil
	}

	var out []*StructuralViolation
	for _, m := range prog.Methods() {
		if len(r.Only) > 0 && !r.Only[m.FullName()] {
			continue
		}
		add := func(s minij.Stmt, builtin string, chain []string) {
			out = append(out, &StructuralViolation{Rule: r.Name(), Method: m, Stmt: s, Builtin: builtin, Chain: chain})
		}
		minij.InspectStmts(m.Body, func(s minij.Stmt) bool {
			sync, ok := s.(*minij.Sync)
			if !ok {
				return true
			}
			minij.WalkStmts(sync.Body, func(inner minij.Stmt) {
				if _, nested := inner.(*minij.Sync); nested && r.Hazard == NestedLock {
					add(inner, syncLink, []string{syncLink})
					return
				}
				for _, call := range minij.OwnCalls(inner) {
					if call.Kind == minij.CallBuiltin {
						if r.Hazard == BlockingIO && minij.IsBlockingBuiltin(call.Name) {
							add(inner, call.Name, []string{"builtin." + call.Name})
						}
						continue
					}
					for _, callee := range calleesOf(g, m, call) {
						if !may[callee] {
							continue
						}
						if c := chain(callee, map[*minij.Method]bool{}); c != nil {
							add(inner, c[len(c)-1], c)
						}
					}
				}
			})
			return false
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Method.FullName() != out[j].Method.FullName() {
			return out[i].Method.FullName() < out[j].Method.FullName()
		}
		return out[i].Stmt.Pos().Before(out[j].Stmt.Pos())
	})
	return out
}

// ownLink returns the last chain link of the first hazard body runs
// itself, or "" when it runs none.
func (h Hazard) ownLink(body minij.Stmt) string {
	link := ""
	if h == NestedLock {
		minij.WalkStmts(body, func(s minij.Stmt) {
			if _, ok := s.(*minij.Sync); ok {
				link = syncLink
			}
		})
		return link
	}
	minij.WalkExprs(body, func(e minij.Expr) {
		if call, ok := e.(*minij.Call); ok && link == "" && call.Kind == minij.CallBuiltin && minij.IsBlockingBuiltin(call.Name) {
			link = "builtin." + call.Name
		}
	})
	return link
}

// calleesOf returns the callee methods of one call expression within m.
func calleesOf(g *callgraph.Graph, m *minij.Method, call *minij.Call) []*minij.Method {
	var out []*minij.Method
	for _, e := range g.Callees[m] {
		if e.Call == call {
			out = append(out, e.Callee)
		}
	}
	return out
}

// LockMonitor is the runtime counterpart of LockRule.Check. It credits
// each run of the rule's hazard under a held lock to every method whose
// synchronized block is held, so a static finding, which names the method
// lexically holding the lock, is confirmed only by its own hazard running
// under that method's lock, whichever callee runs it.
type LockMonitor struct {
	// Holders is the set of credited methods ("Class.method").
	Holders map[string]bool
}

// Monitor attaches a fresh monitor for the rule's hazard to in, chaining
// the interpreter's existing hooks.
func (r *LockRule) Monitor(in *interp.Interp) *LockMonitor {
	mon := &LockMonitor{Holders: map[string]bool{}}
	credit := func() {
		for _, m := range in.LockHolders() {
			mon.Holders[m.FullName()] = true
		}
	}
	if r.Hazard == NestedLock {
		prev := in.Hooks.OnStmt
		in.Hooks.OnStmt = func(s minij.Stmt, fr *interp.Frame) {
			if _, ok := s.(*minij.Sync); ok {
				credit()
			}
			if prev != nil {
				prev(s, fr)
			}
		}
		return mon
	}
	prev := in.Hooks.OnBuiltin
	in.Hooks.OnBuiltin = func(ev interp.IOEvent) {
		if ev.Blocking {
			credit()
		}
		if prev != nil {
			prev(ev)
		}
	}
	return mon
}
