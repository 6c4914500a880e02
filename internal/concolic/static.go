package concolic

import (
	"fmt"
	"sort"
	"strings"

	"lisa/internal/contract"
	"lisa/internal/faultinject"
	"lisa/internal/minij"
	"lisa/internal/smt"
)

// GuardStep records one branch decision along a static path, for reports.
type GuardStep struct {
	Guard string // canonical guard text
	Taken bool
	Pos   minij.Pos
}

// String renders the step.
func (g GuardStep) String() string {
	if g.Taken {
		return g.Guard
	}
	return "!(" + g.Guard + ")"
}

// StaticPath is one intraprocedural branch path from the entry of the
// site's enclosing method to the target statement. It holds no AST node
// and no site, so a cached path keeps no program alive; checking it takes
// the site's semantic from the caller (CheckStaticPathLim).
type StaticPath struct {
	// Cond is the relevance-filtered path condition: the conjunction of
	// recorded guard formulas whose roots intersect the slot operand roots
	// (the paper's pruning).
	Cond smt.Formula
	// FullCond is the unfiltered path condition (for the pruning ablation).
	FullCond smt.Formula
	// Bindings maps slot names to their operand paths at emission.
	Bindings map[string]string
	// Guards lists the branch decisions along the path in order.
	Guards []GuardStep
}

// String renders the path's decisions.
func (p *StaticPath) String() string {
	if len(p.Guards) == 0 {
		return "(unconditional)"
	}
	parts := make([]string, len(p.Guards))
	for i, g := range p.Guards {
		parts[i] = g.String()
	}
	return strings.Join(parts, " ; ")
}

// Options configure static path enumeration.
type Options struct {
	// NoPrune disables relevance filtering, so Cond equals FullCond
	// (the pruning ablation).
	NoPrune bool
	// Lim bounds the prefix-pruning satisfiability queries issued during
	// enumeration and names their result cache (zero value: solver
	// defaults, no cancellation, no cache). Lim.Ctx, when non-nil, is also
	// polled by the walk itself; cancellation stops the walk early and
	// reports the result as truncated (callers check the context
	// themselves to distinguish cancellation from a full budget).
	Lim smt.Limits
	// NoPrefixPrune disables unsat-prefix subtree pruning (the ablation):
	// statically infeasible branch suffixes are then enumerated and
	// discharged path by path as before.
	NoPrefixPrune bool
}

// ctxPollMask throttles the walker's cooperative-cancellation poll: the
// context is checked whenever states&ctxPollMask == 0. The 256-state
// cadence mirrors smt's search poll (and interp's wider step poll) —
// frequent enough that cancellation lands promptly, rare enough that the
// select stays off the enumeration hot path.
const ctxPollMask = 1<<8 - 1

// DefaultMaxPaths bounds path enumeration per site.
const DefaultMaxPaths = 512

// StaticPaths enumerates the intraprocedural branch paths of the site's
// enclosing method that reach the target statement, collecting translated
// guard conditions. Loops contribute at most one iteration per path (their
// guards are recorded once on entry); guards outside the predicate fragment
// fork without contributing a constraint, exactly like the paper's
// "skipped" branches. Paths are deduplicated by their contribution: two
// branch histories with the same filtered condition and bindings are one
// logical path.
func StaticPaths(prog *minij.Program, site *contract.Site, opts Options) (paths []*StaticPath, truncated bool) {
	return staticPathsFrom(prog, site, opts, []*sframe{newSFrame(prog)})
}

// staticPathsFrom enumerates paths to the site's statement starting from
// the given seed states (each carrying conditions inherited from callers).
func staticPathsFrom(prog *minij.Program, site *contract.Site, opts Options, seeds []*sframe) (paths []*StaticPath, truncated bool) {
	if faultinject.Armed() {
		if k, ok := faultinject.At("concolic.paths:" + site.Method.FullName()); ok && k == faultinject.Panic {
			panic("faultinject: concolic.paths " + site.Method.FullName())
		}
	}
	collector := &siteCollector{site: site, opts: opts, seen: map[string]bool{}}
	trunc := walkSeeds(prog, site.Method, site.Stmt.ID(), DefaultMaxPaths, seeds, opts, true, collector.emit, nil)
	sort.Slice(collector.out, func(i, j int) bool {
		return collector.out[i].Cond.String() < collector.out[j].Cond.String()
	})
	return collector.out, trunc
}

// walkSeeds walks m from each seed to the statement targetID, passing every
// state that reaches it to emit, and reports whether a walk was cut short.
// A seed carrying an unsatisfiable inherited prefix can reach nothing; one
// query skips its whole walk. forkPrune also drops each branch direction
// whose prefix is unsatisfiable. When enough is non-nil, the loop stops
// after the first seed that leaves it true, and the walk counts as cut
// short. The seeds themselves are never written.
func walkSeeds(prog *minij.Program, m *minij.Method, targetID, maxPaths int, seeds []*sframe, opts Options, forkPrune bool, emit func(*sframe), enough func() bool) (truncated bool) {
	for _, seed := range seeds {
		w := &staticWalker{
			prog:     prog,
			targetID: targetID,
			maxPaths: maxPaths,
			lim:      opts.Lim,
			prune:    forkPrune && !opts.NoPrefixPrune,
			emit:     emit,
		}
		if !opts.NoPrefixPrune && len(seed.conds) > 0 && !w.prefixSat(seed) {
			continue
		}
		// The walk applies declarations to its state in place, and a seed
		// may be shared by the walks of several chains: walk a clone.
		w.walkSeq(m.Body.Stmts, 0, seed.clone(), walkCtx{}, func(*sframe) {})
		truncated = truncated || w.trunc
		if enough != nil && enough() {
			return true
		}
	}
	return truncated
}

// siteCollector converts emitted walker states into deduplicated
// StaticPaths with slot bindings and relevance filtering.
type siteCollector struct {
	site *contract.Site
	opts Options
	seen map[string]bool
	out  []*StaticPath
}

func (c *siteCollector) emit(st *sframe) {
	bindings, cond, guards, roots := siteCondition(c.site, st, c.opts.NoPrune)
	// Known constants over the bindings' roots are state facts guaranteed on
	// this path (a guard mentioning them folded during translation); they
	// belong in the path condition or the complement check would treat
	// them as unconstrained.
	facts := constFacts(st, roots)
	full := make([]smt.Formula, 0, len(st.conds)+len(facts))
	for _, rc := range st.conds {
		full = append(full, rc.f)
	}
	p := &StaticPath{
		Cond:     smt.NewAnd(append(cond, facts...)...),
		FullCond: smt.NewAnd(append(full, facts...)...),
		Bindings: bindings,
		Guards:   guards,
	}
	key := p.Key()
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.out = append(c.out, p)
}

// siteCondition is the site's condition in state st: the slot bindings as
// operand paths, the recorded conditions over the bindings' roots (all of
// them under noPrune) with their guards, and those roots. Enumeration and
// replay both build a site's condition with it.
func siteCondition(site *contract.Site, st *sframe, noPrune bool) (bindings map[string]string, conds []smt.Formula, guards []GuardStep, roots map[string]bool) {
	bindings = map[string]string{}
	roots = map[string]bool{}
	for slot := range site.Semantic.Target.Bind {
		operand, ok := site.Bindings[slot]
		if !ok {
			continue
		}
		if path, ok := operandPath(operand, st); ok {
			bindings[slot] = path
			roots[smt.Root(path)] = true
		}
	}
	for _, rc := range st.conds {
		if noPrune || mentionsRoot(rc.f, roots) {
			conds = append(conds, rc.f)
			guards = append(guards, rc.guard)
		}
	}
	return bindings, conds, guards, roots
}

// operandPath is the path a slot operand names in st. An identifier or a
// field chain whose value st knows is still bound to its path, so the
// constant reaches the site's condition through constFacts and a replayed
// hit binds the slot as the static path does; any other operand binds only
// when it translates to a path.
func operandPath(operand minij.Expr, st *sframe) (string, bool) {
	if t, ok := translateTerm(operand, st); ok && t.isPath {
		return t.path, true
	}
	switch n := operand.(type) {
	case *minij.Ident:
		return st.PathOf(n.Name)
	case *minij.FieldAccess:
		if base, ok := translateTerm(n.Recv, st); ok && base.isPath {
			return base.path + "." + n.Name, true
		}
	}
	return "", false
}

// mentionsRoot reports whether f mentions a path under one of roots.
func mentionsRoot(f smt.Formula, roots map[string]bool) bool {
	return !smt.VisitAtoms(f, func(a smt.Atom) bool {
		return !roots[smt.Root(a.Path)] && (a.Kind != smt.AtomCmpV || !roots[smt.Root(a.Path2)])
	})
}

// constFacts materializes the environment's constant knowledge about paths
// under roots as formulas, in deterministic order.
func constFacts(st *sframe, roots map[string]bool) []smt.Formula {
	var keys []string
	for path := range st.consts {
		if roots[smt.Root(path)] {
			keys = append(keys, path)
		}
	}
	sort.Strings(keys)
	var out []smt.Formula
	for _, path := range keys {
		c := st.consts[path]
		switch c.Kind {
		case minij.TypeBool:
			if c.Bool {
				out = append(out, smt.NewAtom(smt.BoolAtom(path)))
			} else {
				out = append(out, smt.NewNot(smt.NewAtom(smt.BoolAtom(path))))
			}
		case minij.TypeInt:
			out = append(out, smt.NewAtom(smt.CmpCAtom(path, smt.OpEq, c.Int)))
		case minij.TypeString:
			out = append(out, smt.NewAtom(smt.StrEqAtom(path, smt.OpEq, c.Str)))
		case minij.TypeNull:
			out = append(out, smt.NewAtom(smt.NullAtom(path)))
		}
	}
	return out
}

// sframe is the symbolic state of one enumeration branch. The four maps
// are copy-on-write: a clone shares them with its source, and the first
// write on either side (own) copies all four, so a fork that never assigns
// costs one frame and no map. A fresh frame holds no map until its first
// write. Recorded conditions are immutable cells that frames share: a
// fork's conds is a new slice of the same cells plus its own.
type sframe struct {
	prog     *minij.Program
	aliases  map[string]string
	consts   map[string]ConstVal
	versions map[string]int
	assigned map[string]bool
	// shared reports that another frame may hold these maps.
	shared bool
	conds  []*recordedCond
	// sat is a seed's decided prefix verdict (prefixSat): 0 until decided,
	// then 1 when satisfiable and -1 when not. A seed's conds are never
	// written, so a decided verdict never goes stale. A chain top outlives
	// its walk only in a ChainTops, whose site jobs run one after another
	// on one goroutine, so the verdict needs no lock.
	sat int8
}

type recordedCond struct {
	f     smt.Formula
	guard GuardStep
	// roots memoizes f's variable roots at record time so the
	// prefix-pruning disjointness test in fork does not rewalk every prior
	// condition. A small sorted slice: guards mention a handful of roots,
	// so linear scans beat map allocation on this hot path.
	roots []string
	// inherited is set once the condition has crossed a call boundary, so
	// its guard text carries the " (inherited)" mark exactly once however
	// many hops it travels.
	inherited bool
}

// condRoots collects f's distinct variable roots as a sorted slice without
// allocating intermediate maps (unlike smt.Roots).
func condRoots(f smt.Formula) []string {
	var roots []string
	add := func(p string) {
		r := smt.Root(p)
		for _, have := range roots {
			if have == r {
				return
			}
		}
		roots = append(roots, r)
	}
	smt.VisitAtoms(f, func(a smt.Atom) bool {
		add(a.Path)
		if a.Kind == smt.AtomCmpV {
			add(a.Path2)
		}
		return true
	})
	sort.Strings(roots)
	return roots
}

func newSFrame(prog *minij.Program) *sframe {
	return &sframe{prog: prog}
}

// clone forks the state. The clone's conds has no spare capacity, so an
// append on either side never writes into the other's backing array. The
// clone's seed verdict is undecided: its conds may grow.
func (st *sframe) clone() *sframe {
	st.shared = true
	return &sframe{
		prog:     st.prog,
		aliases:  st.aliases,
		consts:   st.consts,
		versions: st.versions,
		assigned: st.assigned,
		shared:   true,
		conds:    st.conds[:len(st.conds):len(st.conds)],
	}
}

// own gives the frame maps of its own before a write: it copies maps
// shared with another frame, and allocates a fresh frame's.
func (st *sframe) own() {
	if st.aliases != nil && !st.shared {
		return
	}
	st.aliases = copyMap(st.aliases)
	st.consts = copyMap(st.consts)
	st.versions = copyMap(st.versions)
	st.assigned = copyMap(st.assigned)
	st.shared = false
}

// copyMap returns a new map with m's entries; unlike maps.Clone, a nil m
// gives an empty map, ready for writes.
func copyMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// PathOf implements Env: locals resolve through aliases and versioning;
// unknown names are their own root.
func (st *sframe) PathOf(name string) (string, bool) {
	if p, ok := st.aliases[name]; ok {
		return p, true
	}
	if v := st.versions[name]; v > 0 {
		return fmt.Sprintf("%s#%d", name, v), true
	}
	return name, true
}

// ConstOf implements Env.
func (st *sframe) ConstOf(path string) (ConstVal, bool) {
	c, ok := st.consts[path]
	return c, ok
}

// Program implements ProgramProvider, enabling getter normalization.
func (st *sframe) Program() *minij.Program { return st.prog }

// store records the effect of an assignment to name (a bare identifier).
func (st *sframe) store(name string, value minij.Expr) {
	st.own()
	// Invalidate previous knowledge about the old path of this name.
	delete(st.aliases, name)
	cur, _ := st.PathOf(name)
	st.invalidate(cur)
	first := !st.assigned[name]
	st.assigned[name] = true
	if c, ok := LiteralConst(value); ok {
		st.consts[cur] = c
		return
	}
	if t, ok := translateTerm(value, st); ok && t.isPath {
		st.aliases[name] = t.path
		return
	}
	// Opaque: the first binding keeps the bare name as its root; a
	// rebinding bumps the version so stale atoms do not conflate values.
	if !first {
		st.versions[name]++
	}
}

// apply records a statement's effect on the state: a declaration (an
// uninitialized one binds its type's zero value), or an assignment to a
// name or to a field path. Other statements leave the state unchanged.
// Enumeration and replay both apply assignments with it.
func (st *sframe) apply(s minij.Stmt) {
	switch n := s.(type) {
	case *minij.VarDecl:
		if n.Init != nil {
			st.store(n.Name, n.Init)
		} else {
			st.store(n.Name, zeroLiteral(n.Type))
		}
	case *minij.Assign:
		switch t := n.Target.(type) {
		case *minij.Ident:
			st.store(t.Name, n.Value)
		case *minij.FieldAccess:
			if term, ok := translateTerm(t, st); ok && term.isPath {
				st.storePath(term.path, n.Value)
			}
		}
	}
}

// storePath records the effect of an assignment to a field path.
func (st *sframe) storePath(path string, value minij.Expr) {
	st.own()
	st.invalidate(path)
	if c, ok := LiteralConst(value); ok {
		st.consts[path] = c
	}
}

// invalidate forgets constants for path and everything below it. The
// caller has made the maps its own.
func (st *sframe) invalidate(path string) {
	delete(st.consts, path)
	prefix := path + "."
	for k := range st.consts {
		if strings.HasPrefix(k, prefix) {
			delete(st.consts, k)
		}
	}
}

// walkCtx carries control-flow context: the continuation after the
// innermost loop and the active catch handlers.
type walkCtx struct {
	loopExit func(*sframe)
	handlers []handler
}

type handler struct {
	catch *minij.Block
	ctx   walkCtx
	k     func(*sframe)
}

type staticWalker struct {
	prog      *minij.Program
	targetID  int
	maxPaths  int
	lim       smt.Limits
	prune     bool
	emit      func(*sframe)
	emitted   int
	states    int
	trunc     bool
	cancelled bool
}

// prefixCond conjoins the state's recorded (unfiltered) conditions.
func prefixCond(st *sframe) smt.Formula {
	fs := make([]smt.Formula, len(st.conds))
	for i, rc := range st.conds {
		fs[i] = rc.f
	}
	return smt.NewAnd(fs...)
}

// prefixOverlaps reports whether any recorded condition mentions one of
// roots. Both sides are small sorted slices; linear scans allocate nothing.
// Models over disjoint roots merge, so conjoining a condition that overlaps
// nothing onto a satisfiable prefix is satisfiable iff the condition alone
// is: fork then checks the much cheaper (and far more cacheable)
// single-condition query instead of re-solving the whole prefix.
func prefixOverlaps(roots []string, conds []*recordedCond) bool {
	for _, rc := range conds {
		if intersects(rc.roots, roots) {
			return true
		}
	}
	return false
}

// trivSat reports formulas satisfiable by construction, so fork can skip
// the solver for the overwhelmingly common case of a fresh guard over
// untouched variables: a lone literal always has a model (pick the
// variable's value), and a disjunction is satisfiable when any disjunct
// is. The only literal without a model is a self-comparison like x < x —
// those (and anything structurally richer, like a conjunction) fall
// through to the solver.
func trivSat(f smt.Formula) bool {
	switch n := f.(type) {
	case *smt.AtomF:
		return n.Atom.Kind != smt.AtomCmpV || n.Atom.Path != n.Atom.Path2
	case *smt.Not:
		if a, ok := n.X.(*smt.AtomF); ok {
			return a.Atom.Kind != smt.AtomCmpV || a.Atom.Path != a.Atom.Path2
		}
	case *smt.Or:
		for _, x := range n.Xs {
			if trivSat(x) {
				return true
			}
		}
	case *smt.And:
		// A conjunction of bool/null literals is satisfiable whenever no
		// proposition appears in both polarities: distinct propositional
		// atoms never interact through a theory, unlike integer or string
		// comparisons over a shared path (which fall through to the
		// solver). Quadratic over a handful of conjuncts — still far
		// cheaper than rendering a cache key.
		for i, x := range n.Xs {
			a, neg, ok := literalAtom(x)
			if !ok || (a.Kind != smt.AtomBool && a.Kind != smt.AtomNull) {
				return false
			}
			for _, y := range n.Xs[:i] {
				if b, bneg, _ := literalAtom(y); b.Kind == a.Kind && b.Path == a.Path && bneg != neg {
					return false
				}
			}
		}
		return true
	}
	return false
}

// literalAtom unwraps a literal — an atom or a negated atom.
func literalAtom(f smt.Formula) (a smt.Atom, neg, ok bool) {
	switch n := f.(type) {
	case *smt.AtomF:
		return n.Atom, false, true
	case *smt.Not:
		if x, isAtom := n.X.(*smt.AtomF); isAtom {
			return x.Atom, true, true
		}
	}
	return smt.Atom{}, false, false
}

// componentCond conjoins the prefix conditions transitively root-connected
// to the state's newest condition (which must be last in st.conds).
// Conditions over disjoint root sets constrain independent variables, so
// the full prefix is satisfiable iff every root-connected component is —
// and every *other* component was already verified satisfiable when its own
// newest condition was appended. Querying just the newest component is
// therefore as strong as re-solving the whole prefix, while rendering a
// much shorter (and far more cacheable) formula: sibling subtrees that
// differ only in unrelated guards share the component query verbatim.
func componentCond(st *sframe) smt.Formula {
	conds := st.conds
	last := len(conds) - 1
	inComp := make([]bool, len(conds))
	inComp[last] = true
	roots := append([]string(nil), conds[last].roots...)
	for changed := true; changed; {
		changed = false
		for i, rc := range conds[:last] {
			if inComp[i] || !intersects(rc.roots, roots) {
				continue
			}
			inComp[i] = true
			changed = true
			for _, r := range rc.roots {
				if !contains(roots, r) {
					roots = append(roots, r)
				}
			}
		}
	}
	fs := make([]smt.Formula, 0, len(conds))
	for i, rc := range conds {
		if inComp[i] {
			fs = append(fs, rc.f)
		}
	}
	return smt.NewAnd(fs...)
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func intersects(xs, ys []string) bool {
	for _, x := range xs {
		if contains(ys, x) {
			return true
		}
	}
	return false
}

// prefixSat reports whether a seed's path-condition prefix is satisfiable.
// Every path in the walk from the seed carries the prefix, so one UNSAT
// query skips the whole walk. The seed keeps a decided verdict, so a seed
// that several chains of a site, or several sites of a method through their
// ChainTops, share is asked once. Solver errors —
// budget, cancellation, injected faults — keep the walk and decide
// nothing, so the next walk from the seed asks again: pruning is an
// optimization and must not change which paths exist under degraded
// semantics.
func (w *staticWalker) prefixSat(seed *sframe) bool {
	if seed.sat == 0 {
		sat, err := smt.SATLim(prefixCond(seed), w.lim)
		if err != nil {
			return true
		}
		seed.sat = -1
		if sat {
			seed.sat = 1
		}
	}
	return seed.sat > 0
}

func (w *staticWalker) full() bool {
	return w.cancelled || w.emitted >= w.maxPaths || w.states > w.maxPaths*64
}

// walkSeq walks stmts[i:], calling k when the sequence completes normally.
func (w *staticWalker) walkSeq(stmts []minij.Stmt, i int, st *sframe, ctx walkCtx, k func(*sframe)) {
	w.states++
	if w.lim.Ctx != nil && w.states&ctxPollMask == 0 {
		select {
		case <-w.lim.Ctx.Done():
			w.cancelled = true
		default:
		}
	}
	if w.full() {
		w.trunc = true
		return
	}
	if i >= len(stmts) {
		k(st)
		return
	}
	s := stmts[i]
	next := func(st2 *sframe) { w.walkSeq(stmts, i+1, st2, ctx, k) }
	if s.ID() == w.targetID {
		w.emitted++
		w.emit(st)
		return
	}
	switch n := s.(type) {
	case *minij.Block:
		w.walkSeq(n.Stmts, 0, st, ctx, next)
	case *minij.VarDecl, *minij.Assign:
		st.apply(s)
		next(st)
	case *minij.If:
		w.fork(n.Cond, st, true, func(st2 *sframe) {
			w.walkSeq(n.Then.Stmts, 0, st2, ctx, next)
		})
		w.fork(n.Cond, st, false, func(st2 *sframe) {
			if n.Else != nil {
				w.walkSeq([]minij.Stmt{n.Else}, 0, st2, ctx, next)
			} else {
				next(st2)
			}
		})
	case *minij.While:
		w.walkLoop(n.Cond, n.Body, st, ctx, next)
	case *minij.For:
		st2 := st.clone()
		if n.Init != nil {
			st2.apply(n.Init)
		}
		w.walkLoop(n.Cond, n.Body, st2, ctx, next)
	case *minij.ForEach:
		// Skip the loop entirely...
		next(st.clone())
		// ...or take one iteration with an opaque element binding.
		st2 := st.clone()
		st2.own()
		if st2.assigned[n.Var] {
			st2.versions[n.Var]++
		}
		st2.assigned[n.Var] = true
		delete(st2.aliases, n.Var)
		w.walkSeq(n.Body.Stmts, 0, st2, walkCtx{loopExit: next, handlers: ctx.handlers}, next)
	case *minij.Return:
		// The path leaves the method without reaching the target: drop.
	case *minij.Throw:
		w.unwind(st, ctx)
	case *minij.Try:
		inner := ctx
		inner.handlers = append(append([]handler{}, ctx.handlers...), handler{catch: n.Catch, ctx: ctx, k: next})
		w.walkSeq(n.Body.Stmts, 0, st, inner, next)
	case *minij.Sync:
		w.walkSeq(n.Body.Stmts, 0, st, ctx, next)
	case *minij.ExprStmt:
		next(st)
	case *minij.Break, *minij.Continue:
		// One-iteration unrolling: both exit the loop body.
		if ctx.loopExit != nil {
			ctx.loopExit(st)
		}
	default:
		next(st)
	}
}

// walkLoop unrolls a condition-guarded loop zero-or-one times.
func (w *staticWalker) walkLoop(cond minij.Expr, body *minij.Block, st *sframe, ctx walkCtx, next func(*sframe)) {
	if cond != nil {
		// Skip the loop: condition false.
		w.fork(cond, st, false, next)
		// One iteration: condition true, then exit unconditionally (the
		// exit test after an executed iteration is deliberately not
		// recorded; it would contradict the entry condition for loops
		// whose counters we do not model).
		w.fork(cond, st, true, func(st2 *sframe) {
			w.walkSeq(body.Stmts, 0, st2, walkCtx{loopExit: next, handlers: ctx.handlers}, next)
		})
		return
	}
	// for(;;): the body must reach the target or the path dies.
	w.walkSeq(body.Stmts, 0, st.clone(), walkCtx{loopExit: next, handlers: ctx.handlers}, next)
}

// fork explores one direction of a branch. Enumeration unrolls a loop at
// most once, so each fork appends its own recording.
func (w *staticWalker) fork(cond minij.Expr, st *sframe, taken bool, k func(*sframe)) {
	st2 := st.clone()
	rc, dead := branchCond(cond, st2, taken)
	if dead {
		// Constant-folded guards prune impossible directions outright.
		return
	}
	if rc != nil {
		if w.prune {
			rc.roots = condRoots(rc.f)
		}
		conds := make([]*recordedCond, len(st.conds)+1)
		copy(conds, st.conds)
		conds[len(st.conds)] = rc
		st2.conds = conds
		if w.prune {
			// Solver errors keep the subtree, exactly as in prefixSat.
			check := rc.f
			if prefixOverlaps(rc.roots, st.conds) {
				check = componentCond(st2)
			}
			if !trivSat(check) {
				if sat, err := smt.SATLim(check, w.lim); err == nil && !sat {
					return
				}
			}
		}
	}
	k(st2)
}

// branchCond records one direction of a branch in st's vocabulary: a new
// cell holding the translated condition, negated (NNF) when the branch is
// not taken, and its guard step. rc is nil when the branch records
// nothing, because the guard is outside the predicate fragment or folds to
// a constant; dead reports a direction that folds to false. Enumeration
// and replay both record branches with it.
func branchCond(cond minij.Expr, st *sframe, taken bool) (rc *recordedCond, dead bool) {
	f, ok := Translate(cond, st)
	if !ok {
		return nil, false
	}
	if !taken {
		f = smt.NNF(smt.NewNot(f))
	}
	if c, isConst := f.(*smt.Const); isConst {
		return nil, !c.Value
	}
	return &recordedCond{f: f, guard: GuardStep{Guard: minij.CanonExpr(cond), Taken: taken, Pos: cond.Pos()}}, false
}

// unwind transfers control to the innermost catch handler, or drops the
// path when the exception escapes the method.
func (w *staticWalker) unwind(st *sframe, ctx walkCtx) {
	if len(ctx.handlers) == 0 {
		return
	}
	h := ctx.handlers[len(ctx.handlers)-1]
	w.walkSeq(h.catch.Stmts, 0, st.clone(), h.ctx, h.k)
}

// Key fingerprints the path's logical contribution (bindings plus filtered
// condition); paths from different chains with the same key are one
// finding.
func (p *StaticPath) Key() string {
	var sb strings.Builder
	slots := make([]string, 0, len(p.Bindings))
	for s := range p.Bindings {
		slots = append(slots, s)
	}
	sort.Strings(slots)
	for _, s := range slots {
		sb.WriteString(s)
		sb.WriteByte('=')
		sb.WriteString(p.Bindings[s])
		sb.WriteByte(';')
	}
	sb.WriteString(p.Cond.String())
	return sb.String()
}

// zeroLiteral synthesizes the literal for a declared type's zero value.
func zeroLiteral(t minij.Type) minij.Expr {
	switch t.Kind {
	case minij.TypeInt:
		return &minij.IntLit{Value: 0}
	case minij.TypeBool:
		return &minij.BoolLit{Value: false}
	case minij.TypeString:
		return &minij.StrLit{Value: ""}
	default:
		return &minij.NullLit{}
	}
}
