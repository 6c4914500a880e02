package smt

import "context"

// ReferenceSolve decides satisfiability with the retained naive solver: the
// pre-optimization DPLL search that rebuilds a difference-bound matrix and
// runs full Floyd–Warshall at every node. It is kept as the differential
// oracle for the optimized pipeline and as the pre-PR baseline for
// BenchmarkSolverHotPath; production callers use SATLim and SolveLim.
// Limits semantics match SolveLim — ErrBudget on node exhaustion, the
// context's error on cancellation — but there is no fault injection, no
// caching, and no stats accounting.
func ReferenceSolve(f Formula, lim Limits) (sat bool, model Model, err error) {
	max := lim.MaxNodes
	if max <= 0 {
		max = DefaultMaxNodes
	}
	atoms := Atoms(f)
	keys := make([]string, len(atoms))
	byKey := make(map[string]Atom, len(atoms))
	for i, a := range atoms {
		k, _ := a.Key()
		keys[i] = k
		byKey[k] = a
	}
	s := &refSolver{f: f, keys: keys, byKey: byKey, assign: Model{}, max: max, ctx: lim.Ctx}
	ok, err := s.search(0)
	if err != nil {
		return false, nil, err
	}
	if !ok {
		return false, nil, nil
	}
	return true, s.witness, nil
}

// refSolver is the pre-optimization search: atoms are decided in canonical
// key order and the whole theory state is rebuilt at every node.
type refSolver struct {
	f       Formula
	keys    []string
	byKey   map[string]Atom
	assign  Model
	witness Model
	nodes   int
	max     int
	ctx     context.Context
}

// search assigns atoms keys[i:] and reports whether a consistent satisfying
// assignment exists.
func (s *refSolver) search(i int) (bool, error) {
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
		if s.theoryConsistent() {
			s.witness = make(Model, len(s.assign))
			for k, v := range s.assign {
				s.witness[k] = v
			}
			return true, nil
		}
		return false, nil
	}
	if i >= len(s.keys) {
		// All atoms assigned yet value unknown cannot happen; defensive.
		return false, nil
	}
	k := s.keys[i]
	for _, v := range []bool{true, false} {
		s.assign[k] = v
		if s.theoryConsistent() {
			ok, err := s.search(i + 1)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		delete(s.assign, k)
	}
	return false, nil
}

// theoryConsistent checks the currently assigned literals against the
// integer difference-bound theory and the string equality theory.
func (s *refSolver) theoryConsistent() bool {
	dbm := newDBM()
	strEq := map[string]string{}   // path -> required value
	strNe := map[string][]string{} // path -> excluded values
	for k, v := range s.assign {
		a := s.byKey[k]
		switch a.Kind {
		case AtomCmpC:
			dbm.addCmpC(a, v)
		case AtomCmpV:
			dbm.addCmpV(a, v)
		case AtomStrEq:
			// Normalized atoms always have OpEq.
			if v {
				if prev, ok := strEq[a.Path]; ok && prev != a.StrVal {
					return false
				}
				strEq[a.Path] = a.StrVal
			} else {
				strNe[a.Path] = append(strNe[a.Path], a.StrVal)
			}
		}
	}
	for p, val := range strEq {
		for _, ex := range strNe[p] {
			if ex == val {
				return false
			}
		}
	}
	return dbm.consistent()
}

// dbm is a difference-bound matrix over integer paths plus a zero node.
// Edge u→v with weight c encodes u - v <= c.
type dbm struct {
	idx    map[string]int
	names  []string
	edges  []dbmEdge
	diseqC []diseqConst
	diseqV []diseqPair
}

type dbmEdge struct {
	u, v int
	c    int64
}

type diseqConst struct {
	x int
	c int64
}

type diseqPair struct{ x, y int }

func newDBM() *dbm {
	return &dbm{idx: map[string]int{"": 0}, names: []string{""}}
}

func (d *dbm) node(path string) int {
	if i, ok := d.idx[path]; ok {
		return i
	}
	i := len(d.names)
	d.idx[path] = i
	d.names = append(d.names, path)
	return i
}

func (d *dbm) add(u, v int, c int64) {
	d.edges = append(d.edges, dbmEdge{u: u, v: v, c: c})
}

// addCmpC encodes a normalized constant comparison (Op in Eq, Le, Lt) with
// the given truth value.
func (d *dbm) addCmpC(a Atom, v bool) {
	x := d.node(a.Path)
	op := a.Op
	if !v {
		op = op.Negate()
	}
	switch op {
	case OpEq:
		d.add(x, 0, a.IntVal)
		d.add(0, x, -a.IntVal)
	case OpNe:
		d.diseqC = append(d.diseqC, diseqConst{x: x, c: a.IntVal})
	case OpLe:
		d.add(x, 0, a.IntVal)
	case OpLt:
		d.add(x, 0, a.IntVal-1)
	case OpGe:
		d.add(0, x, -a.IntVal)
	case OpGt:
		d.add(0, x, -a.IntVal-1)
	}
}

// addCmpV encodes a normalized variable comparison with the given truth
// value.
func (d *dbm) addCmpV(a Atom, v bool) {
	x, y := d.node(a.Path), d.node(a.Path2)
	op := a.Op
	if !v {
		op = op.Negate()
	}
	switch op {
	case OpEq:
		d.add(x, y, 0)
		d.add(y, x, 0)
	case OpNe:
		d.diseqV = append(d.diseqV, diseqPair{x: x, y: y})
	case OpLe:
		d.add(x, y, 0)
	case OpLt:
		d.add(x, y, -1)
	case OpGe:
		d.add(y, x, 0)
	case OpGt:
		d.add(y, x, -1)
	}
}

const inf = int64(1) << 60

// consistent runs Floyd–Warshall and checks for negative cycles, then
// verifies disequalities against forced equalities. The disequality pass is
// complete for forced point values and forced variable equalities; exotic
// finite-domain disequality chains may be declared consistent (erring
// toward SAT).
func (d *dbm) consistent() bool {
	n := len(d.names)
	if n == 1 && len(d.diseqC) == 0 && len(d.diseqV) == 0 {
		return true
	}
	if len(d.edges) == 0 {
		// Short-circuit for string-only or disequality-only assignments:
		// with no difference bounds there is nothing to propagate and no
		// forced equality, so the matrix cannot reject anything. The one
		// exception is a degenerate self-disequality (x != x), which is
		// false with or without bounds.
		for _, dq := range d.diseqV {
			if dq.x == dq.y {
				return false
			}
		}
		return true
	}
	dist := make([][]int64, n)
	for i := range dist {
		dist[i] = make([]int64, n)
		for j := range dist[i] {
			if i == j {
				dist[i][j] = 0
			} else {
				dist[i][j] = inf
			}
		}
	}
	for _, e := range d.edges {
		if e.c < dist[e.u][e.v] {
			dist[e.u][e.v] = e.c
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if dist[i][k] == inf {
				continue
			}
			for j := 0; j < n; j++ {
				if dist[k][j] == inf {
					continue
				}
				if s := dist[i][k] + dist[k][j]; s < dist[i][j] {
					dist[i][j] = s
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if dist[i][i] < 0 {
			return false
		}
	}
	for _, dq := range d.diseqC {
		// x != c conflicts iff bounds force x == c.
		if dist[dq.x][0] == dq.c && dist[0][dq.x] == -dq.c {
			return false
		}
	}
	for _, dq := range d.diseqV {
		// x != y conflicts iff bounds force x == y.
		if dist[dq.x][dq.y] == 0 && dist[dq.y][dq.x] == 0 {
			return false
		}
	}
	return true
}
