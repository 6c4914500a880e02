package concolic

import (
	"fmt"
	"strings"

	"lisa/internal/contract"
	"lisa/internal/interp"
	"lisa/internal/minij"
	"lisa/internal/smt"
)

// SiteHit records one dynamic execution of a target statement: the
// relevance-filtered conjunction of branch conditions recorded in the
// site's frame up to that point, plus where the execution came from.
type SiteHit struct {
	Site *contract.Site
	// Cond is the frame-local path condition over operand paths.
	Cond smt.Formula
	// Bindings maps slot names to operand paths at the hit.
	Bindings map[string]string
	// CallChain lists the qualified method names on the stack, outermost
	// first, ending with the site's enclosing method.
	CallChain []string
	// TestName labels the concrete input (set by the runner's caller).
	TestName string
	// ConcreteChecker is the checker formula evaluated against the actual
	// runtime state at the hit — the runtime-monitor view. TriFalse means
	// this concrete execution really did reach the target in a
	// rule-violating state.
	ConcreteChecker Tri
	// PostHolds is the contract's postcondition Q evaluated against the
	// runtime state immediately after the target statement executed
	// (TriUnknown when the semantic has no Q or the state was not
	// resolvable).
	PostHolds Tri
}

// VerdictLim applies the complement check to this hit under lim; a
// degraded query yields VerdictInconclusive.
func (h *SiteHit) VerdictLim(lim smt.Limits) Verdict {
	checker, ok := CheckerFor(h.Site.Semantic, h.Bindings)
	if !ok {
		return VerdictUnknown
	}
	v, _ := CheckPathLim(h.Cond, checker, lim)
	return v
}

// String renders the hit.
func (h *SiteHit) String() string {
	return fmt.Sprintf("%s [%s] cond=%s", h.Site, strings.Join(h.CallChain, " -> "), h.Cond)
}

// Runner replays concrete inputs (tests) through the interpreter while
// recording, per stack frame, the translated form of every branch condition
// taken — the dynamic half of the paper's concolic assertion step. The
// injected "code snippet right after all selected branches" of §3.2
// corresponds to the OnBranch hook; the per-target check corresponds to the
// OnStmt hook firing on a registered site statement.
type Runner struct {
	Prog *minij.Program
	In   *interp.Interp

	// Hits collects every dynamic execution of a registered site.
	Hits []*SiteHit
	// StmtsCovered records executed statement IDs (coverage metrics).
	StmtsCovered map[int]bool
	// BranchesCovered records (stmt ID, direction) pairs.
	BranchesCovered map[int]map[bool]bool

	sitesByStmt map[int][]*contract.Site
	shadow      []*dframe
	methodStack []*minij.Method
	testName    string
	noPrune     bool
}

// dframe is the shadow symbolic state of one runtime frame.
type dframe struct {
	// env's conditions are the ones inherited at entry, then this frame's
	// own recordings in first-recorded order.
	env *sframe
	// recorded maps a guard statement ID to the index of its recording in
	// env.conds.
	recorded map[int]int
	// pendingPost holds hits whose postcondition Q awaits evaluation at
	// the next observation point in this frame (the state "after s").
	pendingPost []*pendingPost
}

type pendingPost struct {
	hit *SiteHit
	q   smt.Formula
	// roots captures the runtime values of the postcondition's root
	// variables at the target statement; heap references stay live, so a
	// later field read observes the post-statement state even after the
	// frame's scopes unwind.
	roots map[string]interp.Value
}

// flushPost evaluates any pending postconditions against the frame's
// current state (the first observation point after the target statement).
func (d *dframe) flushPost() {
	for _, p := range d.pendingPost {
		roots := p.roots
		p.hit.PostHolds = EvalConcreteWith(p.q, func(root string) (interp.Value, bool) {
			v, ok := roots[root]
			return v, ok
		})
	}
	d.pendingPost = nil
}

// NewRunner builds a runner over prog with the given registered sites,
// creating a fresh interpreter with the supplied options.
func NewRunner(prog *minij.Program, sites []*contract.Site, opts interp.Options) *Runner {
	r := &Runner{
		Prog:            prog,
		In:              interp.NewWithOptions(prog, opts),
		StmtsCovered:    map[int]bool{},
		BranchesCovered: map[int]map[bool]bool{},
		sitesByStmt:     map[int][]*contract.Site{},
	}
	for _, s := range sites {
		r.sitesByStmt[s.Stmt.ID()] = append(r.sitesByStmt[s.Stmt.ID()], s)
	}
	r.install()
	return r
}

// SetNoPrune disables relevance filtering of recorded conditions (the
// pruning ablation).
func (r *Runner) SetNoPrune(v bool) { r.noPrune = v }

func (r *Runner) install() {
	r.In.Hooks.OnEnter = func(m *minij.Method, fr *interp.Frame, call *minij.Call) {
		var env *sframe
		if caller := r.top(); call != nil && caller != nil {
			env = inheritFrame(r.Prog, caller.env, m, call)
		} else {
			env = newSFrame(r.Prog)
		}
		r.methodStack = append(r.methodStack, m)
		r.shadow = append(r.shadow, &dframe{env: env, recorded: map[int]int{}})
	}
	r.In.Hooks.OnExit = func(m *minij.Method) {
		if top := r.top(); top != nil {
			top.flushPost()
		}
		r.methodStack = r.methodStack[:len(r.methodStack)-1]
		r.shadow = r.shadow[:len(r.shadow)-1]
	}
	r.In.Hooks.OnBranch = func(s minij.Stmt, cond minij.Expr, taken bool, fr *interp.Frame) {
		id := s.ID()
		if r.BranchesCovered[id] == nil {
			r.BranchesCovered[id] = map[bool]bool{}
		}
		r.BranchesCovered[id][taken] = true
		top := r.top()
		if top == nil {
			return
		}
		rc, _ := branchCond(cond, top.env, taken)
		if rc == nil {
			return
		}
		// Replay keeps the latest recording per guard statement, where
		// enumeration appends one per fork: a loop body runs many times,
		// and its most recent decision reflects the state that reaches
		// the target. The new cell replaces the old one in the frame's own
		// slice, never writing through a cell: replay never clones a
		// frame, so no other frame holds this slice.
		if i, seen := top.recorded[id]; seen {
			top.env.conds[i] = rc
			return
		}
		top.recorded[id] = len(top.env.conds)
		top.env.conds = append(top.env.conds, rc)
	}
	r.In.Hooks.OnStmt = func(s minij.Stmt, fr *interp.Frame) {
		r.StmtsCovered[s.ID()] = true
		top := r.top()
		if top == nil {
			return
		}
		// A new statement in this frame means the previous (site)
		// statement finished: evaluate pending postconditions.
		top.flushPost()
		if sites := r.sitesByStmt[s.ID()]; len(sites) > 0 {
			for _, site := range sites {
				r.recordHit(site, top, fr)
			}
		}
		top.env.apply(s)
	}
}

func (r *Runner) top() *dframe {
	if len(r.shadow) == 0 {
		return nil
	}
	return r.shadow[len(r.shadow)-1]
}

func (r *Runner) recordHit(site *contract.Site, top *dframe, fr *interp.Frame) {
	bindings, cells, roots := siteCondition(site, top.env, r.noPrune)
	if r.noPrune {
		// Under NoPrune a hit's constant facts cover every root its frame
		// holds a constant for, where a static path's cover only the
		// bindings' roots: a replayed frame folds branches over constants
		// the test passed in, which enumeration records as conditions. The
		// facts put them back.
		for path := range top.env.consts {
			roots[smt.Root(path)] = true
		}
	}
	chain := make([]string, len(r.methodStack))
	for i, m := range r.methodStack {
		chain[i] = m.FullName()
	}
	hit := &SiteHit{
		Site:      site,
		Cond:      conj(cells, constFacts(top.env, roots)),
		Bindings:  bindings,
		CallChain: chain,
		TestName:  r.testName,
	}
	if checker, ok := CheckerFor(site.Semantic, bindings); ok {
		hit.ConcreteChecker = EvalConcrete(checker, fr)
	}
	if site.Semantic.Post != nil {
		q := site.Semantic.Post
		for slot := range site.Semantic.Target.Bind {
			if path, ok := bindings[slot]; ok {
				q = smt.RenameRoot(q, slot, path)
			}
		}
		resolve := FrameResolver(fr)
		roots := map[string]interp.Value{}
		for r := range smt.Roots(q) {
			if v, ok := resolve(r); ok {
				roots[r] = v
			}
		}
		top.pendingPost = append(top.pendingPost, &pendingPost{hit: hit, q: q, roots: roots})
	}
	r.Hits = append(r.Hits, hit)
}

// RunStatic invokes a static entry method as one concrete input, labeling
// resulting hits with testName. Uncaught MiniJ exceptions are returned but
// do not invalidate hits recorded before the unwind.
func (r *Runner) RunStatic(testName, class, method string, args ...interp.Value) error {
	r.testName = testName
	_, err := r.In.CallStatic(class, method, args...)
	return err
}

// CoverageRatio returns the fraction of program statements executed so far.
func (r *Runner) CoverageRatio() float64 {
	n := r.Prog.NumStmts()
	if n == 0 {
		return 0
	}
	return float64(len(r.StmtsCovered)) / float64(n)
}
