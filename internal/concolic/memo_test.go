package concolic

import (
	"testing"

	"lisa/internal/callgraph"
	"lisa/internal/contract"
	"lisa/internal/minij"
	"lisa/internal/smt"
)

// vocabSrc reaches each of Gate.run's guards in two vocabularies within
// one walk: fast assigns mode and rebinds s on its taken branch only, so
// `s == null || s.closing` speaks of b on one path and of a on the other,
// and `mode == 1` folds to true on one and to false on the other. The
// chain from Entry.serve passes fast as the constant false through one
// call and as a parameter through the other, so `if (fast)` itself folds
// in one chain's walk and records a condition in the other's.
const vocabSrc = `
class Session {
	bool closing;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session owner) {
		nodes.put(path, owner);
	}
}

class Gate {
	DataTree tree;

	void run(string path, Session a, Session b, bool fast) {
		int mode = 0;
		Session s = a;
		if (fast) {
			mode = 1;
			s = b;
		}
		if (s == null || s.closing) {
			throw "closed";
		}
		if (mode == 1) {
			tree.createEphemeral(path, s);
		}
	}
}

class Entry {
	Gate g;

	void serve(string path, Session a, Session b, bool fast, bool slow) {
		if (slow) {
			g.run(path, a, b, false);
		} else {
			g.run(path, a, b, fast);
		}
	}
}
`

// TestGuardInTwoVocabularies: a guard reached in two vocabularies within
// one walk is translated in each, however the walk's cells are shared, so
// the paths are those a walk that translates every crossing anew gives
// (the want strings, recorded before cells were shared).
func TestGuardInTwoVocabularies(t *testing.T) {
	prog := compile(t, vocabSrc)
	site := contract.Match(ephemeralSemantic(), prog)[0]
	tree := callgraph.Build(prog).ExecutionTree(site.Method, callgraph.TreeOptions{
		IsEntry: func(m *minij.Method) bool { return m.Class.Name == "Entry" },
	})
	if len(tree.Paths) != 2 {
		t.Fatalf("chains = %v, want two", tree.Paths)
	}
	for _, tc := range []struct {
		name   string
		chains []callgraph.Path
		opts   Options
		want   string
	}{
		{"intra", []callgraph.Path{nil}, Options{},
			"chain 0 truncated=false\n" +
				"  !(s == null || s.closing) | session=b;b != null && !(b.closing) | fast && b != null && !(b.closing)\n"},
		{"intra-noprune", []callgraph.Path{nil}, Options{NoPrune: true},
			"chain 0 truncated=false\n" +
				"  fast ; !(s == null || s.closing) | session=b;fast && b != null && !(b.closing) | fast && b != null && !(b.closing)\n"},
		{"chains", tree.Paths, Options{},
			"chain 0 truncated=false\n" +
				"chain 1 truncated=false\n" +
				"  !(s == null || s.closing) | session=b;b != null && !(b.closing) | fast && b != null && !(b.closing)\n"},
		{"chains-noprune", tree.Paths, Options{NoPrune: true},
			"chain 0 truncated=false\n" +
				"chain 1 truncated=false\n" +
				"  fast ; !(s == null || s.closing) | session=b;fast && b != null && !(b.closing) | fast && b != null && !(b.closing)\n"},
	} {
		got := renderChainPaths(SiteStaticPaths(prog, site, tc.chains, tc.opts, nil))
		if got != tc.want {
			t.Errorf("%s:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// TestComponentKeyIsItsRender: Tgt.put's second guard shares the root a
// with the disjunction before it, so the walk asks the solver about their
// component, whose key joins the two cells' renders and must parenthesize
// the disjunction as the conjunction's render does. With no cache the
// solver builds each keyed query and panics on a key that differs.
func TestComponentKeyIsItsRender(t *testing.T) {
	prog := compile(t, `
class Tgt { int n; void put(int v) { n = v; } }
class Mid { Tgt t; void work(int a, int b) { if (a > 0 || b > 0) { if (a < 5) { t.put(a); } } } }
`)
	sem := &contract.Semantic{
		ID:     "tgt-put",
		Kind:   contract.StateKind,
		Target: contract.TargetPattern{Callee: "Tgt.put", Bind: map[string]int{"v": 0}},
		Pre:    smt.MustParsePredicate(`v > 0`),
	}
	site := contract.Match(sem, prog)[0]
	paths, _ := StaticPaths(prog, site, Options{})
	if len(paths) != 1 || paths[0].Cond.String() != "(a > 0 || b > 0) && a < 5" {
		t.Fatalf("paths = %v, want one with cond (a > 0 || b > 0) && a < 5", paths)
	}
	qc := smt.NewQueryCache(0)
	StaticPaths(prog, site, Options{Lim: smt.Limits{Cache: qc}})
	// a <= 0 && b <= 0, then each direction of a < 5 with the disjunction.
	if q := qc.Stats().Queries; q != 3 {
		t.Errorf("the walk asked %d queries, want 3", q)
	}
}

// TestComponentConflictInOneCell: the walk skips the solver for a
// component of bool/null literals with no proposition in both polarities,
// splicing a conjunction cell's own literals in. The guard p.y && !p.y
// holds both of p.y's inside one cell, so its component with p.x must
// still go to the solver, which prunes the branch, leaving no path.
func TestComponentConflictInOneCell(t *testing.T) {
	prog := compile(t, `
class Obj { bool x; bool y; }
class Tgt { bool n; void put(bool v) { n = v; } }
class Mid { Tgt t; void work(Obj p) { if (p.x) { if (p.y && !p.y) { t.put(p.x); } } } }
`)
	sem := &contract.Semantic{
		ID:     "tgt-put",
		Kind:   contract.StateKind,
		Target: contract.TargetPattern{Callee: "Tgt.put", Bind: map[string]int{"v": 0}},
		Pre:    smt.MustParsePredicate(`v`),
	}
	site := contract.Match(sem, prog)[0]
	if paths, _ := StaticPaths(prog, site, Options{}); len(paths) != 0 {
		t.Errorf("paths = %v, want none: the branch's prefix is unsatisfiable", paths)
	}
}
