package smt

import "time"

// theory is the persistent theory state one DPLL search carries through its
// descent: a difference-bound matrix over the integer paths of the query's
// atom alphabet plus string equality/disequality sets, all backtrackable
// through a trail. Where the reference solver rebuilds the matrix and runs
// O(n³) Floyd–Warshall at every search node, this state is updated
// incrementally on each atom assignment (O(n²) worst case per new bound,
// usually far less) and popped in O(changes) on backtrack. Assignments that
// touch only boolean, null, or string atoms never consult the integer
// matrix at all.
type theory struct {
	// props is the query's proposition alphabet; assert names one by its
	// index.
	props []Atom
	// node[p] holds integer proposition p's matrix nodes: its path's and,
	// for a variable comparison, its second path's. Node 0 is the zero
	// node, so constant bounds are edges to/from 0. The alphabet is fixed
	// at solver construction, so the matrix never grows mid-search. node
	// is nil when the query has no integer atom.
	node [][2]int32
	n    int
	// dist is the row-major shortest-path closure: dist[u*n+v] = c encodes
	// the tightest known bound u - v <= c (inf = unbounded). The diagonal
	// stays 0; a would-be negative diagonal is rejected at edge-add time.
	dist []int64

	diseqC []diseqConst
	diseqV []diseqPair

	// The string sets are allocated by the first string atom asserted.
	strEq map[string]string          // path -> required value
	strNe map[string]map[string]bool // path -> excluded values

	trail []undo
	marks []int

	// elapsed accumulates wall clock spent in assertions (flows into the
	// package solver stats once per query).
	elapsed time.Duration
}

// undo is one trail entry; kind selects which fields matter.
type undo struct {
	kind    uint8
	i, j    int    // undoDist: matrix cell
	old     int64  // undoDist: previous bound
	path    string // undoStrEq / undoStrNe
	sval    string // undoStrNe: excluded value to forget
	hadPrev bool   // undoStrEq: whether path had a previous requirement
	prev    string // undoStrEq: the previous requirement
}

const (
	undoDist uint8 = iota
	undoDiseqC
	undoDiseqV
	undoStrEq
	undoStrNe
)

// newTheory builds the theory state for a fixed proposition alphabet,
// registering every integer path up front so the matrix dimension is
// stable.
func newTheory(props []Atom) *theory {
	t := &theory{props: props, n: 1}
	var paths []string // paths[i] is node i+1
	reg := func(p string) int32 {
		for i, q := range paths {
			if q == p {
				return int32(i + 1)
			}
		}
		paths = append(paths, p)
		return int32(len(paths))
	}
	for i, a := range props {
		if a.Kind != AtomCmpC && a.Kind != AtomCmpV {
			continue
		}
		if t.node == nil {
			t.node = make([][2]int32, len(props))
		}
		t.node[i][0] = reg(a.Path)
		if a.Kind == AtomCmpV {
			t.node[i][1] = reg(a.Path2)
		}
	}
	t.n = len(paths) + 1
	t.dist = make([]int64, t.n*t.n)
	for i := 0; i < t.n; i++ {
		for j := 0; j < t.n; j++ {
			if i != j {
				t.dist[i*t.n+j] = inf
			}
		}
	}
	return t
}

// mark opens a backtrack point; the matching pop rewinds every change made
// after it.
func (t *theory) mark() { t.marks = append(t.marks, len(t.trail)) }

// pop rewinds the trail to the last mark.
func (t *theory) pop() {
	m := t.marks[len(t.marks)-1]
	t.marks = t.marks[:len(t.marks)-1]
	for len(t.trail) > m {
		u := t.trail[len(t.trail)-1]
		t.trail = t.trail[:len(t.trail)-1]
		switch u.kind {
		case undoDist:
			t.dist[u.i*t.n+u.j] = u.old
		case undoDiseqC:
			t.diseqC = t.diseqC[:len(t.diseqC)-1]
		case undoDiseqV:
			t.diseqV = t.diseqV[:len(t.diseqV)-1]
		case undoStrEq:
			if u.hadPrev {
				t.strEq[u.path] = u.prev
			} else {
				delete(t.strEq, u.path)
			}
		case undoStrNe:
			delete(t.strNe[u.path], u.sval)
		}
	}
}

// assert adds one assignment of proposition p to the theory state and
// reports whether the state stays consistent. On inconsistency the partial
// changes remain on the trail; the caller pops to its mark either way.
func (t *theory) assert(p int, v bool) bool {
	start := time.Now()
	ok := t.assertAtom(p, v)
	t.elapsed += time.Since(start)
	return ok
}

func (t *theory) assertAtom(p int, v bool) bool {
	switch a := t.props[p]; a.Kind {
	case AtomBool, AtomNull:
		// Propositional: no theory content.
		return true
	case AtomCmpC:
		return t.assertCmpC(int(t.node[p][0]), a, v)
	case AtomCmpV:
		return t.assertCmpV(int(t.node[p][0]), int(t.node[p][1]), a, v)
	case AtomStrEq:
		return t.assertStr(a, v)
	}
	return true
}

// assertCmpC adds a normalized constant comparison (Op in Eq, Le, Lt) over
// the path at matrix node x.
func (t *theory) assertCmpC(x int, a Atom, v bool) bool {
	op := a.Op
	if !v {
		op = op.Negate()
	}
	switch op {
	case OpEq:
		return t.addEdge(x, 0, a.IntVal) && t.addEdge(0, x, -a.IntVal)
	case OpNe:
		return t.addDiseqC(x, a.IntVal)
	case OpLe:
		return t.addEdge(x, 0, a.IntVal)
	case OpLt:
		return t.addEdge(x, 0, a.IntVal-1)
	case OpGe:
		return t.addEdge(0, x, -a.IntVal)
	case OpGt:
		return t.addEdge(0, x, -a.IntVal-1)
	}
	return true
}

// assertCmpV adds a normalized variable comparison over the paths at
// matrix nodes x and y.
func (t *theory) assertCmpV(x, y int, a Atom, v bool) bool {
	op := a.Op
	if !v {
		op = op.Negate()
	}
	switch op {
	case OpEq:
		return t.addEdge(x, y, 0) && t.addEdge(y, x, 0)
	case OpNe:
		return t.addDiseqV(x, y)
	case OpLe:
		return t.addEdge(x, y, 0)
	case OpLt:
		return t.addEdge(x, y, -1)
	case OpGe:
		return t.addEdge(y, x, 0)
	case OpGt:
		return t.addEdge(y, x, -1)
	}
	return true
}

// addEdge inserts the bound u - v <= c and incrementally re-closes the
// shortest-path matrix through it. A bound that would close a negative
// cycle is rejected before any cell changes; a bound no tighter than the
// existing closure is a no-op. Otherwise one O(n²) relaxation pass updates
// exactly the cells the new edge improves, each recorded on the trail.
func (t *theory) addEdge(u, v int, c int64) bool {
	n := t.n
	if u == v {
		return c >= 0
	}
	if dvu := t.dist[v*n+u]; dvu != inf && dvu+c < 0 {
		return false
	}
	if c >= t.dist[u*n+v] {
		return true
	}
	for i := 0; i < n; i++ {
		diu := t.dist[i*n+u]
		if diu == inf {
			continue
		}
		base := diu + c
		for j := 0; j < n; j++ {
			dvj := t.dist[v*n+j]
			if dvj == inf {
				continue
			}
			if nd := base + dvj; nd < t.dist[i*n+j] {
				t.trail = append(t.trail, undo{kind: undoDist, i: i, j: j, old: t.dist[i*n+j]})
				t.dist[i*n+j] = nd
			}
		}
	}
	// Tightened bounds can force an equality a standing disequality
	// excludes.
	return t.diseqsOK()
}

// addDiseqC records x != c and checks it against the current closure.
func (t *theory) addDiseqC(x int, c int64) bool {
	t.diseqC = append(t.diseqC, diseqConst{x: x, c: c})
	t.trail = append(t.trail, undo{kind: undoDiseqC})
	n := t.n
	return !(t.dist[x*n+0] == c && t.dist[0*n+x] == -c)
}

// addDiseqV records x != y and checks it against the current closure.
func (t *theory) addDiseqV(x, y int) bool {
	t.diseqV = append(t.diseqV, diseqPair{x: x, y: y})
	t.trail = append(t.trail, undo{kind: undoDiseqV})
	n := t.n
	return !(t.dist[x*n+y] == 0 && t.dist[y*n+x] == 0)
}

// diseqsOK re-checks every active disequality against forced equalities.
// As in the reference solver, the pass is complete for forced point values
// and forced variable equalities; exotic finite-domain disequality chains
// err toward SAT.
func (t *theory) diseqsOK() bool {
	n := t.n
	for _, dq := range t.diseqC {
		if t.dist[dq.x*n+0] == dq.c && t.dist[0*n+dq.x] == -dq.c {
			return false
		}
	}
	for _, dq := range t.diseqV {
		if t.dist[dq.x*n+dq.y] == 0 && t.dist[dq.y*n+dq.x] == 0 {
			return false
		}
	}
	return true
}

// assertStr adds a string (dis)equality. Normalized StrEq atoms always have
// OpEq, so v selects equality vs. disequality.
func (t *theory) assertStr(a Atom, v bool) bool {
	if t.strEq == nil {
		t.strEq = map[string]string{}
		t.strNe = map[string]map[string]bool{}
	}
	if v {
		if prev, ok := t.strEq[a.Path]; ok {
			return prev == a.StrVal
		}
		if t.strNe[a.Path][a.StrVal] {
			return false
		}
		t.trail = append(t.trail, undo{kind: undoStrEq, path: a.Path})
		t.strEq[a.Path] = a.StrVal
		return true
	}
	if eq, ok := t.strEq[a.Path]; ok && eq == a.StrVal {
		return false
	}
	if t.strNe[a.Path] == nil {
		t.strNe[a.Path] = map[string]bool{}
	}
	if !t.strNe[a.Path][a.StrVal] {
		t.strNe[a.Path][a.StrVal] = true
		t.trail = append(t.trail, undo{kind: undoStrNe, path: a.Path, sval: a.StrVal})
	}
	return true
}
