package concolic

import (
	"strings"
	"testing"

	"lisa/internal/callgraph"
	"lisa/internal/contract"
	"lisa/internal/smt"
)

// The caller-guard scenario: the internal helper performs the protected
// operation without its own guard, but its only production caller checks
// the rule first. Intraprocedural analysis alone would flag the helper;
// chain analysis inherits the caller's condition and verifies it.
const callerGuardSrc = `
class Session {
	bool closing;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session owner) {
		nodes.put(path, owner);
	}
}

class Registrar {
	DataTree tree;

	void registerUnchecked(string path, Session sess) {
		tree.createEphemeral(path, sess);
	}
}

class Router {
	Registrar registrar;

	void routeCreate(string path, Session s) {
		if (s == null || s.closing) {
			throw "SessionExpired";
		}
		registrar.registerUnchecked(path, s);
	}
}
`

func TestChainInheritsCallerGuard(t *testing.T) {
	prog := compile(t, callerGuardSrc)
	sem := ephemeralSemantic()
	site := contract.Match(sem, prog)[0]

	// Intraprocedural: the helper has no guard — flagged.
	intra, _ := StaticPaths(prog, site, Options{})
	if len(intra) != 1 || CheckStaticPath(sem, intra[0]) != VerdictViolation {
		t.Fatalf("intraprocedural should flag the helper: %v", intra)
	}

	// Chain through the guarded router: the condition is inherited and the
	// path verifies.
	g := callgraph.Build(prog)
	tree := g.ExecutionTree(site.Method, callgraph.TreeOptions{})
	if len(tree.Paths) != 1 || len(tree.Paths[0]) != 1 {
		t.Fatalf("tree paths = %v", tree.Paths)
	}
	paths, truncated := ChainStaticPaths(prog, site, tree.Paths[0], Options{})
	if truncated {
		t.Error("unexpected truncation")
	}
	if len(paths) != 1 {
		t.Fatalf("chain paths = %d", len(paths))
	}
	cond := paths[0].Cond.String()
	if !strings.Contains(cond, "sess != null") || !strings.Contains(cond, "!(sess.closing)") {
		t.Errorf("inherited condition = %q", cond)
	}
	if v := CheckStaticPath(sem, paths[0]); v != VerdictVerified {
		t.Errorf("chain verdict = %v, want VERIFIED", v)
	}
	// Inherited guards are labeled.
	foundInherited := false
	for _, gd := range paths[0].Guards {
		if strings.Contains(gd.Guard, "(inherited)") {
			foundInherited = true
		}
	}
	if !foundInherited {
		t.Errorf("guards = %v, want an inherited marker", paths[0].Guards)
	}
}

func TestChainEmptyFallsBackToIntra(t *testing.T) {
	prog := compile(t, callerGuardSrc)
	sem := ephemeralSemantic()
	site := contract.Match(sem, prog)[0]
	direct, _ := StaticPaths(prog, site, Options{})
	viaChain, _ := ChainStaticPaths(prog, site, nil, Options{})
	if len(direct) != len(viaChain) {
		t.Fatalf("empty chain should equal intraprocedural: %d vs %d", len(direct), len(viaChain))
	}
	if direct[0].Cond.String() != viaChain[0].Cond.String() {
		t.Errorf("conds differ: %q vs %q", direct[0].Cond, viaChain[0].Cond)
	}
}

func TestChainUnguardedCallerStillViolates(t *testing.T) {
	// Add a second, unguarded entry: its chain must violate even though the
	// router chain verifies.
	src := callerGuardSrc + `
class AdminBackdoor {
	Registrar registrar;

	void forceCreate(string path, Session s) {
		if (s == null) {
			return;
		}
		registrar.registerUnchecked(path, s);
	}
}
`
	prog := compile(t, src)
	sem := ephemeralSemantic()
	site := contract.Match(sem, prog)[0]
	g := callgraph.Build(prog)
	tree := g.ExecutionTree(site.Method, callgraph.TreeOptions{})
	if len(tree.Paths) != 2 {
		t.Fatalf("tree paths = %v", tree.Paths)
	}
	verdictByEntry := map[string]Verdict{}
	for _, chain := range tree.Paths {
		paths, _ := ChainStaticPaths(prog, site, chain, Options{})
		for _, p := range paths {
			entry := chain.Entry(site.Method).FullName()
			v := CheckStaticPath(sem, p)
			if old, ok := verdictByEntry[entry]; !ok || v == VerdictViolation {
				_ = old
				verdictByEntry[entry] = v
			}
		}
	}
	if verdictByEntry["Router.routeCreate"] != VerdictVerified {
		t.Errorf("router chain = %v", verdictByEntry["Router.routeCreate"])
	}
	if verdictByEntry["AdminBackdoor.forceCreate"] != VerdictViolation {
		t.Errorf("backdoor chain = %v", verdictByEntry["AdminBackdoor.forceCreate"])
	}
}

func TestChainConstantArgumentPropagates(t *testing.T) {
	// A caller passing a literal propagates it as a known constant.
	src := `
class Store {
	list ops;

	void write(bool force, string op) {
		if (force) {
			apply(op);
		}
	}

	void apply(string op) {
		ops.add(op);
	}
}

class Caller {
	Store store;

	void flush(string op) {
		store.write(true, op);
	}
}
`
	prog := compile(t, src)
	sem := &contract.Semantic{
		ID:   "store-rule",
		Kind: contract.StateKind,
		Target: contract.TargetPattern{
			Callee: "Store.apply",
			Bind:   map[string]int{"op": 0},
		},
		Pre: smt.MustParsePredicate(`op != ""`),
	}
	if err := sem.Validate(); err != nil {
		t.Fatal(err)
	}
	site := contract.Match(sem, prog)[0]
	g := callgraph.Build(prog)
	tree := g.ExecutionTree(site.Method, callgraph.TreeOptions{})
	// The site lives in Store.write (the statement calling apply), so the
	// chain is Caller.flush -> Store.write: one edge carrying force=true.
	var longest callgraph.Path
	for _, ch := range tree.Paths {
		if len(ch) > len(longest) {
			longest = ch
		}
	}
	if len(longest) != 1 {
		t.Fatalf("chains = %v", tree.Paths)
	}
	paths, _ := ChainStaticPaths(prog, site, longest, Options{})
	// The inherited constant force=true folds the guard away: exactly one
	// unconditional-in-force path reaches apply.
	if len(paths) != 1 {
		t.Fatalf("paths = %d", len(paths))
	}
	for _, gd := range paths[0].Guards {
		if strings.Contains(gd.Guard, "force") {
			t.Errorf("force guard should have folded to a constant: %v", paths[0].Guards)
		}
	}
}

// TestChainTwoHopInheritance: conditions split across two caller levels
// both reach the site — the router checks null, the dispatcher checks the
// state flag, and the helper checks nothing.
func TestChainTwoHopInheritance(t *testing.T) {
	src := `
class Session {
	bool closing;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session owner) {
		nodes.put(path, owner);
	}
}

class Helper {
	DataTree tree;

	void register(string path, Session sess) {
		tree.createEphemeral(path, sess);
	}
}

class Dispatcher {
	Helper helper;

	void dispatch(string path, Session d) {
		if (d.closing) {
			throw "SessionExpired";
		}
		helper.register(path, d);
	}
}

class Router {
	Dispatcher dispatcher;

	void route(string path, Session r) {
		if (r == null) {
			throw "BadRequest";
		}
		dispatcher.dispatch(path, r);
	}
}
`
	prog := compile(t, src)
	sem := ephemeralSemantic()
	site := contract.Match(sem, prog)[0]
	if site.Method.FullName() != "Helper.register" {
		t.Fatalf("site = %s", site)
	}
	g := callgraph.Build(prog)
	tree := g.ExecutionTree(site.Method, callgraph.TreeOptions{})
	if len(tree.Paths) != 1 || len(tree.Paths[0]) != 2 {
		t.Fatalf("chains = %v", tree.Paths)
	}
	paths, _ := ChainStaticPaths(prog, site, tree.Paths[0], Options{})
	if len(paths) != 1 {
		t.Fatalf("paths = %d", len(paths))
	}
	cond := paths[0].Cond.String()
	// The null check from Router and the closing check from Dispatcher both
	// arrive renamed into the helper's parameter vocabulary.
	if !strings.Contains(cond, "sess != null") || !strings.Contains(cond, "!(sess.closing)") {
		t.Errorf("two-hop inherited condition = %q", cond)
	}
	if v := CheckStaticPath(sem, paths[0]); v != VerdictVerified {
		t.Errorf("verdict = %v", v)
	}
}
