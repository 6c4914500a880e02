package concolic

import (
	"fmt"
	"strings"
	"testing"

	"lisa/internal/callgraph"
	"lisa/internal/contract"
	"lisa/internal/minij"
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
	if len(intra) != 1 || checkStaticPath(t, sem, intra[0]) != VerdictViolation {
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
	if v := checkStaticPath(t, sem, paths[0]); v != VerdictVerified {
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
			v := checkStaticPath(t, sem, p)
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
	// Router's guard crossed two call boundaries and Dispatcher's one; each
	// carries the inherited mark once.
	if len(paths[0].Guards) != 2 {
		t.Fatalf("guards = %v, want Router's and Dispatcher's", paths[0].Guards)
	}
	for _, gd := range paths[0].Guards {
		if n := strings.Count(gd.Guard, "(inherited)"); n != 1 {
			t.Errorf("guard %q carries %d inherited marks, want 1", gd.Guard, n)
		}
	}
	if v := checkStaticPath(t, sem, paths[0]); v != VerdictVerified {
		t.Errorf("verdict = %v", v)
	}
}

// forkSrc declares and assigns under one branch of a fork and tests the
// result after the join: if the then-branch's writes leaked into the
// else-branch, the unguarded else path would inherit the session check.
const forkSrc = `
class Session {
	bool closing;
	int ttl;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session owner) {
		nodes.put(path, owner);
	}
}

class Gate {
	DataTree tree;

	void run(string path, Session s, bool fast, int mode) {
		mode = 0;
		if (fast) {
			int checked = 1;
			mode = 1;
			s.ttl = 5;
		}
		if (mode == 1) {
			if (s == null || s.closing) {
				throw "SessionExpired";
			}
		}
		tree.createEphemeral(path, s);
	}
}
`

// TestForkedFramesKeepWritesPrivate: frames share their maps and
// conditions copy-on-write, so a declaration or assignment under one
// branch must not show up in the sibling branch, and a walk must never
// write the seed it starts from, which several chains' walks share.
func TestForkedFramesKeepWritesPrivate(t *testing.T) {
	prog := compile(t, forkSrc)
	sem := ephemeralSemantic()
	site := contract.Match(sem, prog)[0]
	m := prog.Method("Gate", "run")

	// Frame level: writes through one clone stay out of its sibling and
	// its source, whichever map they touch.
	seed := newSFrame(prog)
	seed.store("mode", &minij.IntLit{Value: 7})
	seed.conds = make([]*recordedCond, 1, 4)
	seed.conds[0] = &recordedCond{f: smt.NewAtom(smt.BoolAtom("fast")), guard: GuardStep{Guard: "fast", Taken: true}}
	a, b := seed.clone(), seed.clone()
	var body []minij.Stmt
	minij.WalkStmts(m.Body, func(s minij.Stmt) {
		switch s.(type) {
		case *minij.VarDecl, *minij.Assign:
			body = append(body, s)
		}
	})
	for _, s := range body {
		a.apply(s)
	}
	a.conds = append(a.conds, &recordedCond{f: smt.NewAtom(smt.BoolAtom("a")), guard: GuardStep{Guard: "a", Taken: true}})
	b.conds = append(b.conds, &recordedCond{f: smt.NewAtom(smt.BoolAtom("b")), guard: GuardStep{Guard: "b", Taken: true}})
	if c, ok := a.ConstOf("s.ttl"); !ok || c.Int != 5 {
		t.Fatalf("the writing clone lost its own field write: s.ttl = %v, %v", c, ok)
	}
	for name, st := range map[string]*sframe{"sibling": b, "source": seed} {
		if c, ok := st.ConstOf("mode"); !ok || c.Int != 7 {
			t.Errorf("%s sees mode = %v, %v after the sibling assigned it", name, c, ok)
		}
		if _, ok := st.ConstOf("s.ttl"); ok {
			t.Errorf("%s sees the sibling's field write", name)
		}
		if st.assigned["checked"] {
			t.Errorf("%s sees the sibling's declaration", name)
		}
	}
	if got := a.conds[1].guard.Guard; got != "a" {
		t.Errorf("the writing clone's second condition is %q after its sibling appended, want a", got)
	}
	if got := b.conds[1].guard.Guard; got != "b" {
		t.Errorf("the sibling's second condition is %q after the writing clone appended, want b", got)
	}
	if len(seed.conds) != 1 || seed.conds[:2][1] != nil {
		t.Errorf("source has %d conditions after its clones appended, want 1, and an empty spare slot", len(seed.conds))
	}

	// Walk level: the else-branch path must stay unguarded, so it
	// violates, while the then-branch path carries the session check
	// (NoPrune keeps the fast guard in each path's steps).
	paths, _ := StaticPaths(prog, site, Options{NoPrune: true})
	got := map[string]Verdict{}
	for _, p := range paths {
		got[p.String()] = checkStaticPath(t, sem, p)
	}
	want := map[string]Verdict{
		"fast ; !(s == null || s.closing)": VerdictVerified,
		"!(fast)":                          VerdictViolation,
	}
	if len(got) != len(want) {
		t.Fatalf("paths = %v, want %v", got, want)
	}
	for path, v := range want {
		if got[path] != v {
			t.Errorf("path %q = %v, want %v (all: %v)", path, got[path], v, got)
		}
	}

	// Shared seed: a walk that assigns mode must leave the seed's constant
	// alone, so a second walk from the same seed sees what the first saw.
	shared := newSFrame(prog)
	shared.store("mode", &minij.IntLit{Value: 1})
	var emitted []string
	for i := 0; i < 2; i++ {
		n := 0
		walkSeeds(prog, m, site.Stmt.ID(), DefaultMaxPaths, []*sframe{shared}, Options{}, true, func(st *sframe) {
			n++
			emitted = append(emitted, frameKey(st))
		}, nil)
		if c, ok := shared.ConstOf("mode"); !ok || c.Int != 1 {
			t.Fatalf("walk %d left the shared seed's mode = %v, %v, want 1", i, c, ok)
		}
		if len(shared.assigned) != 1 || len(shared.consts) != 1 {
			t.Fatalf("walk %d wrote the shared seed: assigned %v, consts %v", i, shared.assigned, shared.consts)
		}
		if n == 0 {
			t.Fatalf("walk %d emitted nothing", i)
		}
	}
	if half := len(emitted) / 2; strings.Join(emitted[:half], "|") != strings.Join(emitted[half:], "|") {
		t.Errorf("two walks from one seed emitted different states:\n%v", emitted)
	}
}

// TestSharedSeedPrefixCheckedOnce: both chains to Site.at enter Mid.work
// through the same edge, so they share its entry state, whose inherited
// prefix a > 5 && a < 3 is unsatisfiable. The seed keeps the decided
// verdict: the second chain's walk of Mid.work does not ask the solver
// again, so the one prefix query is the only query of the site.
func TestSharedSeedPrefixCheckedOnce(t *testing.T) {
	prog := compile(t, `
class Tgt { int n; void put(int v) { n = v; } }
class Site { Tgt t; void at(int v) { t.put(v); } }
class Hop { Site s; void via(int v) { s.at(v); } }
class Mid { Site s; Hop h; void work(int a) { s.at(a); h.via(a); } }
class Entry { Mid m; void run(int a) { if (a > 5) { if (a < 3) { m.work(a); } } } }
`)
	sem := &contract.Semantic{
		ID:     "tgt-put",
		Kind:   contract.StateKind,
		Target: contract.TargetPattern{Callee: "Tgt.put", Bind: map[string]int{"v": 0}},
		Pre:    smt.MustParsePredicate(`v > 0`),
	}
	site := contract.Match(sem, prog)[0]
	tree := callgraph.Build(prog).ExecutionTree(site.Method, callgraph.TreeOptions{
		IsEntry: func(m *minij.Method) bool { return m.Class.Name == "Entry" },
	})
	if len(tree.Paths) != 2 {
		t.Fatalf("chains = %v, want Entry.run -> Mid.work -> Site.at and the one via Hop.via", tree.Paths)
	}
	qc := smt.NewQueryCache(0)
	paths, _ := SiteStaticPaths(prog, site, tree.Paths, Options{Lim: smt.Limits{Cache: qc}}, nil)
	for i, p := range paths {
		if len(p) != 0 {
			t.Errorf("chain %d: %d paths through an unsatisfiable prefix, want none", i, len(p))
		}
	}
	if q := qc.Stats().Queries; q != 1 {
		t.Errorf("the site asked %d queries, want 1: the shared seed's prefix, once", q)
	}
}

// twoSites returns Tgt.put's two sites in prog, which must both lie in one
// method, and that method's chains from Entry methods.
func twoSites(t *testing.T, prog *minij.Program) ([]*contract.Site, []callgraph.Path) {
	t.Helper()
	sem := &contract.Semantic{
		ID:     "tgt-put",
		Kind:   contract.StateKind,
		Target: contract.TargetPattern{Callee: "Tgt.put", Bind: map[string]int{"v": 0}},
		Pre:    smt.MustParsePredicate(`v > 0`),
	}
	sites := contract.Match(sem, prog)
	if len(sites) != 2 || sites[0].Method != sites[1].Method {
		t.Fatalf("sites = %v, want two in one method", sites)
	}
	tree := callgraph.Build(prog).ExecutionTree(sites[0].Method, callgraph.TreeOptions{
		IsEntry: func(m *minij.Method) bool { return m.Class.Name == "Entry" },
	})
	return sites, tree.Paths
}

// renderChainPaths renders a site walk's paths and truncation flags.
func renderChainPaths(paths [][]*StaticPath, truncated []bool) string {
	var sb strings.Builder
	for i, ps := range paths {
		fmt.Fprintf(&sb, "chain %d truncated=%v\n", i, truncated[i])
		for _, p := range ps {
			fmt.Fprintf(&sb, "  %s | %s | %s\n", p, p.Key(), p.FullCond)
		}
	}
	return sb.String()
}

// TestSharedTopPrefixCheckedOnce: Mid.work holds two sites, and its only
// chain enters it with the unsatisfiable prefix a > 5 && a < 3. Walked
// through one ChainTops, the second site starts from the first site's
// chain top, whose verdict is decided, so the one prefix query is the only
// query of both sites; walked alone, each site asks its own.
func TestSharedTopPrefixCheckedOnce(t *testing.T) {
	prog := compile(t, `
class Tgt { int n; void put(int v) { n = v; } }
class Mid { Tgt t; void work(int a) { t.put(a); t.put(a); } }
class Entry { Mid m; void run(int a) { if (a > 5) { if (a < 3) { m.work(a); } } } }
`)
	sites, chains := twoSites(t, prog)
	for _, shared := range []bool{true, false} {
		var tops *ChainTops
		want := uint64(2)
		if shared {
			tops, want = &ChainTops{}, 1
		}
		qc := smt.NewQueryCache(0)
		for _, site := range sites {
			paths, _ := SiteStaticPaths(prog, site, chains, Options{Lim: smt.Limits{Cache: qc}}, tops)
			if len(paths[0]) != 0 {
				t.Errorf("shared=%v: %d paths through an unsatisfiable prefix, want none", shared, len(paths[0]))
			}
		}
		if q := qc.Stats().Queries; q != want {
			t.Errorf("shared=%v: the two sites asked %d queries, want %d", shared, q, want)
		}
	}
}

// TestUndecidedTopAskedAgain: a one-node solver ceiling cannot decide the
// prefix Mid.work inherits, four clauses over p and q that no unit
// propagation settles. The chain top's verdict stays undecided, so the
// second site, walking from the first site's top, asks the query again,
// and each site gets exactly the paths it gets walked alone.
func TestUndecidedTopAskedAgain(t *testing.T) {
	prog := compile(t, `
class Tgt { bool n; void put(bool v) { n = v; } }
class Mid { Tgt t; void work(bool p, bool q) { t.put(p); t.put(q); } }
class Entry { Mid m; void run(bool p, bool q) { if (p || q) { if (!p || q) { if (p || !q) { if (!p || !q) { m.work(p, q); } } } } } }
`)
	sites, chains := twoSites(t, prog)
	qc := smt.NewQueryCache(0)
	opts := Options{Lim: smt.Limits{MaxNodes: 1, Cache: qc}}
	tops := &ChainTops{}
	for i, site := range sites {
		before := qc.Stats().Queries
		paths, truncated := SiteStaticPaths(prog, site, chains, opts, tops)
		if asked := qc.Stats().Queries - before; i == 1 && asked != 1 {
			t.Errorf("the second site asked %d queries, want 1: the undecided prefix, again", asked)
		}
		got := renderChainPaths(paths, truncated)
		if want := renderChainPaths(SiteStaticPaths(prog, site, chains, opts, nil)); got != want {
			t.Errorf("site %d through shared tops:\n%s\nwalked alone:\n%s", i, got, want)
		}
		if len(paths[0]) == 0 {
			t.Errorf("site %d: no paths, want the ones an undecided prefix keeps", i)
		}
	}
}

// TestSharedTopsKeepChainTruncation: Entry.run reaches its call to
// Mid.work in 2^7 states, past maxChainStates, so the chain is cut short.
// Both sites of Mid.work, walked through one ChainTops, carry the cut and
// get exactly the paths each gets walked alone.
func TestSharedTopsKeepChainTruncation(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`
class Tgt { int n; void put(int v) { n = v; } }
class Mid { Tgt t; void work(int a) { if (a > 0) { t.put(a); } t.put(a); } }
class Entry { Mid m; void run(int a, int b) {
`)
	for i := 0; i < 7; i++ {
		fmt.Fprintf(&sb, "if (a > %d) { b = %d; }\n", i, i)
	}
	sb.WriteString("m.work(a); } }\n")
	prog := compile(t, sb.String())
	if maxChainStates >= 1<<7 {
		t.Fatalf("maxChainStates = %d no longer cuts 128 states", maxChainStates)
	}
	sites, chains := twoSites(t, prog)
	tops := &ChainTops{}
	for i, site := range sites {
		paths, truncated := SiteStaticPaths(prog, site, chains, Options{}, tops)
		if !truncated[0] {
			t.Errorf("site %d: chain not truncated, want the cut at maxChainStates", i)
		}
		got := renderChainPaths(paths, truncated)
		if want := renderChainPaths(SiteStaticPaths(prog, site, chains, Options{}, nil)); got != want {
			t.Errorf("site %d through shared tops:\n%s\nwalked alone:\n%s", i, got, want)
		}
	}
}
