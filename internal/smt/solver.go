package smt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"lisa/internal/faultinject"
)

// Model assigns a truth value to each atom key that the solver decided.
type Model map[string]bool

// String renders the model deterministically.
func (m Model) String() string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, m[k])
	}
	return strings.Join(parts, ", ")
}

// ErrBudget is returned when the DPLL search exceeds its node budget.
var ErrBudget = errors.New("smt: search budget exhausted")

// DefaultMaxNodes bounds the DPLL search. Corpus formulas have well under
// twenty atoms, so this is a backstop, not a practical limit.
const DefaultMaxNodes = 1 << 20

// ctxPollMask throttles the cooperative-cancellation poll: the DPLL search
// checks Limits.Ctx whenever nodes&ctxPollMask == 0. A 256-node cadence
// keeps the select off the hot loop while bounding cancellation latency to
// far below a millisecond of search; interp uses the same pattern (its
// ctxPollMask is wider because interpreter steps are cheaper than search
// nodes).
const ctxPollMask = 1<<8 - 1

// Limits bounds one satisfiability query. The zero value applies the
// package defaults: DefaultMaxNodes, no cancellation and no result cache.
type Limits struct {
	// Ctx, when non-nil, is polled cooperatively during the DPLL search;
	// cancellation or deadline expiry surfaces as the context's error.
	Ctx context.Context
	// MaxNodes caps search-tree nodes (<= 0 means DefaultMaxNodes).
	MaxNodes int
	// Cache, when non-nil, routes this query through that result cache,
	// giving its owner exact per-instance stats (and its own disk tier).
	// Nil means no cache: every query runs a solve.
	Cache *QueryCache
}

// SolveLim decides satisfiability of f under lim, returning a witness
// model when SAT. A non-nil error is ErrBudget (node ceiling hit) or the
// context's error; the bool is meaningless then, and callers must surface
// the query as inconclusive rather than guessing a direction. Model
// queries always solve: lim.Cache, when set, only counts them.
func SolveLim(f Formula, lim Limits) (sat bool, model Model, err error) {
	stats.queries.Add(1)
	var nodes int
	sat, model, nodes, err = solveCore(f, lim, true)
	if qc := lim.Cache; qc != nil {
		qc.queries.Add(1)
		qc.solves.Add(1)
		qc.nodes.Add(uint64(nodes))
	}
	return sat, model, err
}

// solveCore runs one uncached solve: fault injection first (so injected
// faults keep firing on every cache miss), then the optimized DPLL(T)
// search, updating the package counters exactly once per solve. The
// witness model is built only when wantModel asks for it.
func solveCore(f Formula, lim Limits, wantModel bool) (sat bool, model Model, nodes int, err error) {
	if faultinject.Armed() {
		switch k, ok := faultinject.At("smt.solve"); {
		case ok && k == faultinject.Budget:
			return false, nil, 0, ErrBudget
		case ok && k == faultinject.Panic:
			panic("faultinject: smt.solve")
		}
	}
	start := time.Now()
	var theoryTime time.Duration
	sat, model, nodes, theoryTime, err = runSolver(f, lim, wantModel)
	stats.solves.Add(1)
	stats.nodes.Add(uint64(nodes))
	stats.solveNS.Add(int64(time.Since(start)))
	stats.theoryNS.Add(int64(theoryTime))
	if err != nil {
		return false, nil, nodes, err
	}
	return sat, model, nodes, nil
}

// SATLim reports whether f is satisfiable under lim, through lim.Cache
// when it names one. A non-nil error (budget exhaustion, cancellation) is
// never folded into the answer, and never cached: callers surface it as an
// INCONCLUSIVE verdict. While fault injection is armed the cache is
// bypassed entirely — no reads and no writes — so injected faults fire
// with the cadence a cold process would see and results computed under
// injection never poison later runs.
func SATLim(f Formula, lim Limits) (bool, error) {
	countQuery(lim.Cache)
	if c, ok := f.(*Const); ok {
		return c.Value, nil
	}
	if !cached(lim) {
		return satUncached(f, lim)
	}
	return lim.Cache.load(f.String(), maxNodes(lim), func() (bool, int, error) {
		sat, _, nodes, err := solveCore(f, lim, false)
		return sat, nodes, err
	})
}

// SATKeyed is SATLim for a query whose render the caller already holds:
// key must equal build().String() byte for byte, so the query is cached
// and stored exactly as SATLim caches and stores the built formula, and
// build runs only when no cache tier answers. The formula must not be a
// constant. A query lim.Cache does not serve builds its formula, and then
// its key is checked against the render: a key that differs is a caller's
// bug, and panics.
func SATKeyed(key string, build func() Formula, lim Limits) (bool, error) {
	countQuery(lim.Cache)
	if !cached(lim) {
		f := build()
		if render := f.String(); key != render {
			panic(fmt.Sprintf("smt: query key %q is not its formula's render %q", key, render))
		}
		return satUncached(f, lim)
	}
	return lim.Cache.load(key, maxNodes(lim), func() (bool, int, error) {
		sat, _, nodes, err := solveCore(build(), lim, false)
		return sat, nodes, err
	})
}

// cached reports whether lim's cache serves a satisfiability query: it
// names one, and no fault injection outside the store is armed.
func cached(lim Limits) bool {
	return lim.Cache != nil && !(faultinject.Armed() && !faultinject.StoreScoped())
}

// countQuery charges one satisfiability query to the package counters and
// to qc, when it names a cache.
func countQuery(qc *QueryCache) {
	stats.queries.Add(1)
	if qc != nil {
		qc.queries.Add(1)
	}
}

// satUncached solves a query no cache serves, charging the solve to
// lim.Cache's counters when it names one.
func satUncached(f Formula, lim Limits) (bool, error) {
	solve := func() (bool, int, error) {
		sat, _, nodes, err := solveCore(f, lim, false)
		return sat, nodes, err
	}
	if lim.Cache == nil {
		sat, _, err := solve()
		return sat, err
	}
	sat, _, err := lim.Cache.runSolve(solve)
	return sat, err
}

// maxNodes is lim's node ceiling.
func maxNodes(lim Limits) int {
	if lim.MaxNodes <= 0 {
		return DefaultMaxNodes
	}
	return lim.MaxNodes
}

// ImpliesLim reports whether p logically entails q (p ⇒ q), i.e. whether
// p ∧ ¬q is unsatisfiable, under lim.
func ImpliesLim(p, q Formula, lim Limits) (bool, error) {
	sat, err := SATLim(NewAnd(p, NewNot(q)), lim)
	return !sat, err
}

// solver is the optimized DPLL(T) search: unit-propagated literals are
// pre-assigned, remaining propositions are decided most-constrained-first,
// and the theory state is carried incrementally (mark/assert/pop) instead
// of being rebuilt at every node. A proposition is its index among the
// query's distinct normalized atoms; its key string is rendered only to
// break a tie in the decision order or to name it in a witness model.
type solver struct {
	tree   []cnode // the simplified formula, flattened in preorder
	assign []int8  // per proposition: 0 undecided, 1 true, -1 false
	order  []int32 // decision order, most-constrained-first; units excluded
	th     *theory
	nodes  int
	max    int
	ctx    context.Context
}

// cnode is one node of a compiled formula. A negated atom compiles to one
// literal node; the children of a Not, And or Or follow it, and end is the
// index just past its subtree.
type cnode struct {
	kind uint8
	neg  bool  // cLit: the literal is its proposition's negation
	prop int32 // cLit: the proposition's index
	end  int32
}

const (
	cLit uint8 = iota
	cNot
	cAnd
	cOr
	cTrue
	cFalse
)

// compiler flattens a formula into cnodes, numbering its distinct
// propositions (normalized, in first-seen order) and counting each one's
// occurrences.
type compiler struct {
	tree   []cnode
	props  []Atom
	counts []int
}

// prop returns the index of proposition a, numbering it if it is new. A
// linear scan: the theory's matrix is already quadratic in a query's
// integer paths.
func (c *compiler) prop(a Atom) int32 {
	for i, p := range c.props {
		if p == a {
			return int32(i)
		}
	}
	c.props = append(c.props, a)
	c.counts = append(c.counts, 0)
	return int32(len(c.props) - 1)
}

// compile appends f's nodes, negated when neg is set, which only a Not
// over an atom asks for: it compiles to its atom's literal, flipped.
func (c *compiler) compile(f Formula, neg bool) {
	at := len(c.tree)
	switch n := f.(type) {
	case *AtomF:
		a, aneg := n.Atom.normalize()
		p := c.prop(a)
		c.counts[p]++
		c.tree = append(c.tree, cnode{kind: cLit, neg: aneg != neg, prop: p, end: int32(at + 1)})
		return
	case *Not:
		if _, isAtom := n.X.(*AtomF); isAtom {
			c.compile(n.X, !neg)
			return
		}
		c.tree = append(c.tree, cnode{kind: cNot})
		c.compile(n.X, false)
	case *And:
		c.tree = append(c.tree, cnode{kind: cAnd})
		for _, x := range n.Xs {
			c.compile(x, false)
		}
	case *Or:
		c.tree = append(c.tree, cnode{kind: cOr})
		for _, x := range n.Xs {
			c.compile(x, false)
		}
	case *Const:
		kind := cFalse
		if n.Value {
			kind = cTrue
		}
		c.tree = append(c.tree, cnode{kind: kind, end: int32(at + 1)})
		return
	default:
		panic(fmt.Sprintf("smt: unhandled formula %T", f))
	}
	c.tree[at].end = int32(len(c.tree))
}

// size counts the nodes of f, so the compiled tree is allocated once.
func size(f Formula) int {
	switch n := f.(type) {
	case *Not:
		return 1 + size(n.X)
	case *And:
		s := 1
		for _, x := range n.Xs {
			s += size(x)
		}
		return s
	case *Or:
		s := 1
		for _, x := range n.Xs {
			s += size(x)
		}
		return s
	}
	return 1
}

// runSolver prepares and runs one optimized search, returning the verdict,
// the witness when wantModel asks for it, the node count, and the theory
// wall clock.
func runSolver(f Formula, lim Limits, wantModel bool) (bool, Model, int, time.Duration, error) {
	f = simplify(f)
	c := compiler{tree: make([]cnode, 0, size(f))}
	c.compile(f, false)
	th := newTheory(c.props)

	// Unit propagation: literals on the top-level conjunction spine are
	// forced before any search happens. A propositional conflict among them
	// (or a false constant conjunct) decides UNSAT at zero nodes; a theory
	// conflict does the same.
	assign := make([]int8, len(c.props))
	if unitLiterals(c.tree, 0, assign) {
		return false, nil, 0, th.elapsed, nil
	}
	units := 0
	for p, v := range assign {
		if v != 0 {
			units++
			if !th.assert(p, v > 0) {
				return false, nil, 0, th.elapsed, nil
			}
		}
	}

	// Most-constrained-first decision order: propositions occurring most
	// often are decided first so conflicts surface high in the tree; ties
	// break on the canonical key for determinism.
	order := make([]int32, 0, len(c.props)-units)
	for p, v := range assign {
		if v == 0 {
			order = append(order, int32(p))
		}
	}
	if len(order) > 1 {
		keys := make([]string, len(c.props))
		key := func(p int32) string {
			if keys[p] == "" {
				keys[p], _ = c.props[p].Key()
			}
			return keys[p]
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c.counts[a] != c.counts[b] {
				return c.counts[b] - c.counts[a]
			}
			return strings.Compare(key(a), key(b))
		})
	}

	s := &solver{
		tree:   c.tree,
		assign: assign,
		order:  order,
		th:     th,
		max:    maxNodes(lim),
		ctx:    lim.Ctx,
	}
	ok, err := s.search(0)
	if err != nil {
		return false, nil, s.nodes, th.elapsed, err
	}
	if !ok {
		return false, nil, s.nodes, th.elapsed, nil
	}
	if !wantModel {
		return true, nil, s.nodes, th.elapsed, nil
	}
	// The search returns straight up the stack on success, so the
	// assignment still holds every proposition decided on the way down.
	model := make(Model, len(assign))
	for p, v := range assign {
		if v != 0 {
			k, _ := c.props[p].Key()
			model[k] = v > 0
		}
	}
	return true, model, s.nodes, th.elapsed, nil
}

// search decides propositions order[i:] and reports whether a
// theory-consistent satisfying assignment exists. The theory is consistent
// on entry by construction — every assigned literal was accepted by an
// incremental assert on the way down — so no per-node recheck is needed.
func (s *solver) search(i int) (bool, error) {
	s.nodes++
	if s.nodes > s.max {
		return false, ErrBudget
	}
	if s.ctx != nil && s.nodes&ctxPollMask == 0 {
		select {
		case <-s.ctx.Done():
			return false, s.ctx.Err()
		default:
		}
	}
	switch s.eval(0) {
	case triFalse:
		return false, nil
	case triTrue:
		return true, nil
	}
	if i >= len(s.order) {
		// All atoms assigned yet value unknown cannot happen; defensive.
		return false, nil
	}
	p := s.order[i]
	for _, v := range [2]bool{true, false} {
		s.assign[p] = -1
		if v {
			s.assign[p] = 1
		}
		s.th.mark()
		if s.th.assert(int(p), v) {
			ok, err := s.search(i + 1)
			if ok || err != nil {
				return ok, err
			}
		}
		s.th.pop()
		s.assign[p] = 0
	}
	return false, nil
}

// eval evaluates the compiled subtree at i under the partial assignment
// with three-valued logic, as eval3 does for a Formula.
func (s *solver) eval(i int32) tri {
	n := &s.tree[i]
	switch n.kind {
	case cLit:
		v := s.assign[n.prop]
		if v == 0 {
			return triUnknown
		}
		if (v > 0) != n.neg {
			return triTrue
		}
		return triFalse
	case cNot:
		switch s.eval(i + 1) {
		case triTrue:
			return triFalse
		case triFalse:
			return triTrue
		}
		return triUnknown
	case cAnd:
		out := triTrue
		for j := i + 1; j < n.end; j = s.tree[j].end {
			switch s.eval(j) {
			case triFalse:
				return triFalse
			case triUnknown:
				out = triUnknown
			}
		}
		return out
	case cOr:
		out := triFalse
		for j := i + 1; j < n.end; j = s.tree[j].end {
			switch s.eval(j) {
			case triTrue:
				return triTrue
			case triUnknown:
				out = triUnknown
			}
		}
		return out
	case cTrue:
		return triTrue
	}
	return triFalse
}

// unitLiterals assigns the literals forced by the conjunction spine rooted
// at tree[i] and reports a propositional contradiction among them (or a
// false constant conjunct), which decides UNSAT outright.
func unitLiterals(tree []cnode, i int32, assign []int8) (conflict bool) {
	n := tree[i]
	switch n.kind {
	case cAnd:
		for j := i + 1; j < n.end; j = tree[j].end {
			if unitLiterals(tree, j, assign) {
				conflict = true
			}
		}
	case cLit:
		want := int8(1)
		if n.neg {
			want = -1
		}
		if prev := assign[n.prop]; prev != 0 && prev != want {
			conflict = true
		}
		assign[n.prop] = want
	case cFalse:
		conflict = true
	}
	return conflict
}

// simplify rebuilds f through the smart constructors, folding constants and
// flattening nested conjunctions/disjunctions so the search sees the
// smallest equivalent tree and unit propagation sees the full spine. A
// subtree the constructors would leave as it is is returned itself.
func simplify(f Formula) Formula {
	switch n := f.(type) {
	case *And:
		xs, changed := simplifyAll(n.Xs, isAnd)
		if !changed {
			return f
		}
		return NewAnd(xs...)
	case *Or:
		xs, changed := simplifyAll(n.Xs, isOr)
		if !changed {
			return f
		}
		return NewOr(xs...)
	case *Not:
		x := simplify(n.X)
		switch x.(type) {
		case *Const, *Not:
		default:
			if x == n.X {
				return f
			}
		}
		return NewNot(x)
	}
	return f
}

func isAnd(f Formula) bool { _, ok := f.(*And); return ok }
func isOr(f Formula) bool  { _, ok := f.(*Or); return ok }

// simplifyAll simplifies the operands of an n-ary node and reports whether
// the node's constructor would change anything: an operand changed, or one
// is a constant or a node of the same kind, which it folds or flattens,
// or there are fewer than two operands.
func simplifyAll(xs []Formula, sameKind func(Formula) bool) ([]Formula, bool) {
	changed := len(xs) < 2
	var out []Formula
	for i, x := range xs {
		y := simplify(x)
		if _, isConst := y.(*Const); isConst || sameKind(y) {
			changed = true
		}
		if y != x && out == nil {
			out = make([]Formula, len(xs))
			copy(out, xs[:i])
		}
		if out != nil {
			out[i] = y
		}
	}
	if out == nil {
		return xs, changed
	}
	return out, true
}

type tri int

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

// eval3 evaluates f under a partial assignment with three-valued logic.
func eval3(f Formula, assign Model) tri {
	switch n := f.(type) {
	case *Const:
		if n.Value {
			return triTrue
		}
		return triFalse
	case *AtomF:
		k, neg := n.Atom.Key()
		v, ok := assign[k]
		if !ok {
			return triUnknown
		}
		if v != neg {
			return triTrue
		}
		return triFalse
	case *Not:
		switch eval3(n.X, assign) {
		case triTrue:
			return triFalse
		case triFalse:
			return triTrue
		}
		return triUnknown
	case *And:
		out := triTrue
		for _, x := range n.Xs {
			switch eval3(x, assign) {
			case triFalse:
				return triFalse
			case triUnknown:
				out = triUnknown
			}
		}
		return out
	case *Or:
		out := triFalse
		for _, x := range n.Xs {
			switch eval3(x, assign) {
			case triTrue:
				return triTrue
			case triUnknown:
				out = triUnknown
			}
		}
		return out
	}
	panic(fmt.Sprintf("smt: unhandled formula %T", f))
}
