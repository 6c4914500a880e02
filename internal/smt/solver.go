package smt

import (
	"context"
	"errors"
	"fmt"
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
	sat, model, nodes, err = solveCore(f, lim)
	if qc := lim.Cache; qc != nil {
		qc.queries.Add(1)
		qc.solves.Add(1)
		qc.nodes.Add(uint64(nodes))
	}
	return sat, model, err
}

// solveCore runs one uncached solve: fault injection first (so injected
// faults keep firing on every cache miss), then the optimized DPLL(T)
// search, updating the package counters exactly once per solve.
func solveCore(f Formula, lim Limits) (sat bool, model Model, nodes int, err error) {
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
	sat, model, nodes, theoryTime, err = runSolver(f, lim)
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
	stats.queries.Add(1)
	qc := lim.Cache
	if qc != nil {
		qc.queries.Add(1)
	}
	if c, ok := f.(*Const); ok {
		return c.Value, nil
	}
	solve := func() (bool, int, error) {
		sat, _, nodes, err := solveCore(f, lim)
		return sat, nodes, err
	}
	if qc == nil {
		sat, _, err := solve()
		return sat, err
	}
	if faultinject.Armed() && !faultinject.StoreScoped() {
		sat, _, err := qc.runSolve(solve)
		return sat, err
	}
	max := lim.MaxNodes
	if max <= 0 {
		max = DefaultMaxNodes
	}
	return qc.load(f.String(), max, solve)
}

// ImpliesLim reports whether p logically entails q (p ⇒ q), i.e. whether
// p ∧ ¬q is unsatisfiable, under lim.
func ImpliesLim(p, q Formula, lim Limits) (bool, error) {
	sat, err := SATLim(NewAnd(p, NewNot(q)), lim)
	return !sat, err
}

// solver is the optimized DPLL(T) search: unit-propagated literals are
// pre-assigned, remaining atoms are decided most-constrained-first, and the
// theory state is carried incrementally (mark/assert/pop) instead of being
// rebuilt at every node.
type solver struct {
	f       Formula
	order   []string // decision keys, most-constrained-first; units excluded
	byKey   map[string]Atom
	assign  Model
	witness Model // scratch model reused for the SAT result
	th      *theory
	nodes   int
	max     int
	ctx     context.Context
}

// runSolver prepares and runs one optimized search, returning the verdict,
// witness, node count, and theory wall clock.
func runSolver(f Formula, lim Limits) (bool, Model, int, time.Duration, error) {
	max := lim.MaxNodes
	if max <= 0 {
		max = DefaultMaxNodes
	}
	f = simplify(f)
	atoms := Atoms(f)
	byKey := make(map[string]Atom, len(atoms))
	for _, a := range atoms {
		k, _ := a.Key()
		byKey[k] = a
	}
	th := newTheory(atoms)

	// Unit propagation: literals on the top-level conjunction spine are
	// forced before any search happens. A propositional conflict among them
	// (or a false constant conjunct) decides UNSAT at zero nodes; a theory
	// conflict does the same.
	units, conflict := unitLiterals(f)
	if conflict {
		return false, nil, 0, th.elapsed, nil
	}
	assign := make(Model, len(atoms))
	for k, v := range units {
		assign[k] = v
		if !th.assert(byKey[k], v) {
			return false, nil, 0, th.elapsed, nil
		}
	}

	// Most-constrained-first decision order: atoms occurring most often are
	// decided first so conflicts surface high in the tree; ties break on the
	// canonical key for determinism.
	counts := map[string]int{}
	VisitAtoms(f, func(a Atom) bool {
		k, _ := a.Key()
		counts[k]++
		return true
	})
	order := make([]string, 0, len(atoms))
	for _, a := range atoms {
		k, _ := a.Key()
		if _, isUnit := units[k]; !isUnit {
			order = append(order, k)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if counts[order[i]] != counts[order[j]] {
			return counts[order[i]] > counts[order[j]]
		}
		return order[i] < order[j]
	})

	s := &solver{
		f:       f,
		order:   order,
		byKey:   byKey,
		assign:  assign,
		witness: make(Model, len(atoms)),
		th:      th,
		max:     max,
		ctx:     lim.Ctx,
	}
	ok, err := s.search(0)
	if err != nil {
		return false, nil, s.nodes, th.elapsed, err
	}
	if !ok {
		return false, nil, s.nodes, th.elapsed, nil
	}
	return true, s.witness, s.nodes, th.elapsed, nil
}

// search decides atoms order[i:] and reports whether a theory-consistent
// satisfying assignment exists. The theory is consistent on entry by
// construction — every assigned literal was accepted by an incremental
// assert on the way down — so no per-node recheck is needed.
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
	switch eval3(s.f, s.assign) {
	case triFalse:
		return false, nil
	case triTrue:
		// Fill the preallocated scratch witness; the success path returns
		// straight up the stack, so the assignment is never unwound from
		// under it.
		for k, v := range s.assign {
			s.witness[k] = v
		}
		return true, nil
	}
	if i >= len(s.order) {
		// All atoms assigned yet value unknown cannot happen; defensive.
		return false, nil
	}
	k := s.order[i]
	a := s.byKey[k]
	for _, v := range [2]bool{true, false} {
		s.assign[k] = v
		s.th.mark()
		if s.th.assert(a, v) {
			ok, err := s.search(i + 1)
			if ok || err != nil {
				return ok, err
			}
		}
		s.th.pop()
		delete(s.assign, k)
	}
	return false, nil
}

// unitLiterals extracts the literals forced by f's top-level conjunction
// spine. The second result reports a propositional contradiction among the
// units (or a false constant conjunct), which decides UNSAT outright.
func unitLiterals(f Formula) (Model, bool) {
	units := Model{}
	conflict := false
	var walk func(Formula)
	walk = func(g Formula) {
		switch n := g.(type) {
		case *And:
			for _, x := range n.Xs {
				walk(x)
			}
		case *AtomF:
			k, neg := n.Atom.Key()
			want := !neg
			if prev, ok := units[k]; ok && prev != want {
				conflict = true
			}
			units[k] = want
		case *Not:
			if af, ok := n.X.(*AtomF); ok {
				k, neg := af.Atom.Key()
				want := neg
				if prev, ok := units[k]; ok && prev != want {
					conflict = true
				}
				units[k] = want
			}
		case *Const:
			if !n.Value {
				conflict = true
			}
		}
	}
	walk(f)
	return units, conflict
}

// simplify rebuilds f through the smart constructors, folding constants and
// flattening nested conjunctions/disjunctions so the search sees the
// smallest equivalent tree and unit propagation sees the full spine.
func simplify(f Formula) Formula {
	switch n := f.(type) {
	case *And:
		xs := make([]Formula, len(n.Xs))
		for i, x := range n.Xs {
			xs[i] = simplify(x)
		}
		return NewAnd(xs...)
	case *Or:
		xs := make([]Formula, len(n.Xs))
		for i, x := range n.Xs {
			xs[i] = simplify(x)
		}
		return NewOr(xs...)
	case *Not:
		return NewNot(simplify(n.X))
	}
	return f
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
