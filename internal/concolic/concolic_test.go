package concolic

import (
	"strings"
	"testing"

	"lisa/internal/contract"
	"lisa/internal/interp"
	"lisa/internal/minij"
	"lisa/internal/smt"
)

func compile(t *testing.T, src string) *minij.Program {
	t.Helper()
	prog, err := minij.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := minij.Check(prog); err != nil {
		t.Fatalf("Check: %v", err)
	}
	return prog
}

// checkStaticPath is CheckStaticPathLim with no result cache, failing the
// test on a solver error.
func checkStaticPath(t *testing.T, sem *contract.Semantic, p *StaticPath) Verdict {
	t.Helper()
	v, err := CheckStaticPathLim(sem, p, smt.Limits{})
	if err != nil {
		t.Fatalf("CheckStaticPathLim(%s): %v", p, err)
	}
	return v
}

// zkRegressedSrc models the Figure 3 regression: the patched processCreate
// guards against closing sessions, while the newer touch-path reaches the
// same ephemeral creation with only a null check.
const zkRegressedSrc = `
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

class PrepProcessor {
	DataTree tree;

	void processCreate(string path, Session s) {
		if (s == null || s.closing) {
			throw "KeeperException";
		}
		tree.createEphemeral(path, s);
	}
}

class SessionTracker {
	DataTree tree;

	void touchAndRegister(string path, Session s) {
		if (s == null) {
			return;
		}
		tree.createEphemeral(path, s);
	}
}
`

func ephemeralSemantic() *contract.Semantic {
	return &contract.Semantic{
		ID:   "zk-ephemeral-closing",
		Kind: contract.StateKind,
		Target: contract.TargetPattern{
			Callee: "DataTree.createEphemeral",
			Bind:   map[string]int{"session": 1},
		},
		Pre: smt.MustParsePredicate(`session != null && session.closing == false`),
	}
}

func TestStaticPathsFindRegression(t *testing.T) {
	prog := compile(t, zkRegressedSrc)
	sem := ephemeralSemantic()
	sites := contract.Match(sem, prog)
	if len(sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(sites))
	}
	verdicts := map[string]Verdict{}
	for _, site := range sites {
		paths, truncated := StaticPaths(prog, site, Options{})
		if truncated {
			t.Errorf("site %s truncated", site)
		}
		if len(paths) != 1 {
			t.Fatalf("site %s: paths = %d, want 1", site, len(paths))
		}
		verdicts[site.Method.FullName()] = checkStaticPath(t, sem, paths[0])
	}
	if verdicts["PrepProcessor.processCreate"] != VerdictVerified {
		t.Errorf("patched path = %v, want VERIFIED", verdicts["PrepProcessor.processCreate"])
	}
	if verdicts["SessionTracker.touchAndRegister"] != VerdictViolation {
		t.Errorf("regressed path = %v, want VIOLATION", verdicts["SessionTracker.touchAndRegister"])
	}
}

func TestStaticPathConditions(t *testing.T) {
	prog := compile(t, zkRegressedSrc)
	sem := ephemeralSemantic()
	sites := contract.Match(sem, prog)
	// sites sorted by method name: PrepProcessor first.
	prep := sites[0]
	if prep.Method.FullName() != "PrepProcessor.processCreate" {
		t.Fatalf("unexpected site order: %v", prep)
	}
	paths, _ := StaticPaths(prog, prep, Options{})
	cond := paths[0].Cond.String()
	// Reaching the create requires the guard to be false.
	if !strings.Contains(cond, "s != null") || !strings.Contains(cond, "!(s.closing)") {
		t.Errorf("path condition = %q", cond)
	}
}

func TestStaticPathsElseIfLadder(t *testing.T) {
	src := `
class Res {
	bool open;
	int mode;
}

class User {
	void use(Res r) {
		if (r == null) {
			return;
		} else if (r.mode == 1) {
			touch(r);
		} else {
			if (r.open) {
				touch(r);
			}
		}
	}

	void touch(Res r) {
		log(r.mode);
	}
}
`
	prog := compile(t, src)
	sem := &contract.Semantic{
		ID:   "res-open",
		Kind: contract.StateKind,
		Target: contract.TargetPattern{
			Callee: "User.touch",
			Bind:   map[string]int{"r": 0},
		},
		Pre: smt.MustParsePredicate(`r != null && r.open`),
	}
	sites := contract.Match(sem, prog)
	if len(sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(sites))
	}
	var verdicts []Verdict
	for _, site := range sites {
		paths, _ := StaticPaths(prog, site, Options{})
		if len(paths) != 1 {
			t.Fatalf("paths = %d for %s", len(paths), site)
		}
		verdicts = append(verdicts, checkStaticPath(t, sem, paths[0]))
	}
	// mode==1 branch does not check r.open: violation. Third branch checks
	// it: verified.
	hasViolation, hasVerified := false, false
	for _, v := range verdicts {
		if v == VerdictViolation {
			hasViolation = true
		}
		if v == VerdictVerified {
			hasVerified = true
		}
	}
	if !hasViolation || !hasVerified {
		t.Errorf("verdicts = %v, want one violation and one verified", verdicts)
	}
}

func TestStaticPathsConstantNormalization(t *testing.T) {
	// §3.2 normalization: a constant flag must fold into the condition.
	src := `
class Res {
	bool open;
}

class User {
	void use(Res r, bool force) {
		bool protect = true;
		if (r != null && (protect || force)) {
			if (r.open) {
				touch(r);
			}
		}
	}

	void touch(Res r) {
		log("t");
	}
}
`
	prog := compile(t, src)
	sem := &contract.Semantic{
		ID:   "res-open",
		Kind: contract.StateKind,
		Target: contract.TargetPattern{
			Callee: "User.touch",
			Bind:   map[string]int{"r": 0},
		},
		Pre: smt.MustParsePredicate(`r != null && r.open`),
	}
	sites := contract.Match(sem, prog)
	paths, _ := StaticPaths(prog, sites[0], Options{})
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want 1 (constant fold should collapse forks)", len(paths))
	}
	if got := checkStaticPath(t, sem, paths[0]); got != VerdictVerified {
		t.Errorf("verdict = %v, want VERIFIED; cond = %s", got, paths[0].Cond)
	}
}

func TestStaticPathsThroughLoop(t *testing.T) {
	src := `
class Res {
	bool open;
}

class User {
	void drain(list rs) {
		for (x in rs) {
			log(x);
		}
		Res r = null;
		while (r == null) {
			r = acquire();
		}
		touch(r);
	}

	Res acquire() {
		return new Res();
	}

	void touch(Res r) {
		log("t");
	}
}
`
	prog := compile(t, src)
	sem := &contract.Semantic{
		ID:   "res-nonnull",
		Kind: contract.StateKind,
		Target: contract.TargetPattern{
			Callee: "User.touch",
			Bind:   map[string]int{"r": 0},
		},
		Pre: smt.MustParsePredicate(`r != null`),
	}
	sites := contract.Match(sem, prog)
	paths, _ := StaticPaths(prog, sites[0], Options{})
	if len(paths) == 0 {
		t.Fatal("no paths through loops")
	}
	// At least one path exists; the loop-skip path (r stays the constant
	// null) violates, the one-iteration path leaves r opaque.
	var verdicts []Verdict
	for _, p := range paths {
		verdicts = append(verdicts, checkStaticPath(t, sem, p))
	}
	hasViolation := false
	for _, v := range verdicts {
		if v == VerdictViolation {
			hasViolation = true
		}
	}
	if !hasViolation {
		t.Errorf("verdicts = %v: the skip-loop path (r == null constant) must violate", verdicts)
	}
}

func TestStaticPathsTryCatch(t *testing.T) {
	src := `
class Res {
	bool open;
}

class User {
	void use(Res r) {
		try {
			if (r == null) {
				throw "NPE";
			}
			touch(r);
		} catch (e) {
			log(e);
		}
	}

	void touch(Res r) {
		log("t");
	}
}
`
	prog := compile(t, src)
	sem := &contract.Semantic{
		ID:   "res-nonnull",
		Kind: contract.StateKind,
		Target: contract.TargetPattern{
			Callee: "User.touch",
			Bind:   map[string]int{"r": 0},
		},
		Pre: smt.MustParsePredicate(`r != null`),
	}
	sites := contract.Match(sem, prog)
	paths, _ := StaticPaths(prog, sites[0], Options{})
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want 1 (throw path lands in catch, never reaching touch)", len(paths))
	}
	if got := checkStaticPath(t, sem, paths[0]); got != VerdictVerified {
		t.Errorf("verdict = %v, cond = %s", got, paths[0].Cond)
	}
}

func TestPruningAblation(t *testing.T) {
	src := `
class Res {
	bool open;
}

class User {
	void use(Res r, int unrelatedA, bool unrelatedB) {
		if (unrelatedA > 0) {
			log("a");
		}
		if (unrelatedB) {
			log("b");
		}
		if (r.open) {
			touch(r);
		}
	}

	void touch(Res r) {
		log("t");
	}
}
`
	prog := compile(t, src)
	sem := &contract.Semantic{
		ID:   "res-open",
		Kind: contract.StateKind,
		Target: contract.TargetPattern{
			Callee: "User.touch",
			Bind:   map[string]int{"r": 0},
		},
		Pre: smt.MustParsePredicate(`r.open`),
	}
	sites := contract.Match(sem, prog)
	pruned, _ := StaticPaths(prog, sites[0], Options{})
	unpruned, _ := StaticPaths(prog, sites[0], Options{NoPrune: true})
	if len(pruned) != 1 {
		t.Errorf("pruned paths = %d, want 1 (irrelevant branches collapse)", len(pruned))
	}
	if len(unpruned) != 4 {
		t.Errorf("unpruned paths = %d, want 4 (2x2 irrelevant branches)", len(unpruned))
	}
}

func TestDynamicRunnerVerdicts(t *testing.T) {
	prog := compile(t, zkRegressedSrc+`
class Test {
	static void createOnLiveSession() {
		PrepProcessor p = new PrepProcessor();
		p.tree = new DataTree();
		p.tree.nodes = newMap();
		Session s = new Session();
		s.closing = false;
		s.ttl = 10;
		p.processCreate("/a", s);
	}

	static void touchRegistersOnClosingSession() {
		SessionTracker tr = new SessionTracker();
		tr.tree = new DataTree();
		tr.tree.nodes = newMap();
		Session s = new Session();
		s.closing = true;
		tr.touchAndRegister("/b", s);
	}
}
`)
	sem := ephemeralSemantic()
	sites := contract.Match(sem, prog)
	r := NewRunner(prog, sites, interp.Options{})
	if err := r.RunStatic("t1", "Test", "createOnLiveSession"); err != nil {
		t.Fatal(err)
	}
	if err := r.RunStatic("t2", "Test", "touchRegistersOnClosingSession"); err != nil {
		t.Fatal(err)
	}
	if len(r.Hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(r.Hits))
	}
	byTest := map[string]*SiteHit{}
	for _, h := range r.Hits {
		byTest[h.TestName] = h
	}
	if v := byTest["t1"].VerdictLim(smt.Limits{}); v != VerdictVerified {
		t.Errorf("t1 verdict = %v (cond=%s), want VERIFIED", v, byTest["t1"].Cond)
	}
	if v := byTest["t2"].VerdictLim(smt.Limits{}); v != VerdictViolation {
		t.Errorf("t2 verdict = %v (cond=%s), want VIOLATION", v, byTest["t2"].Cond)
	}
	chain := byTest["t2"].CallChain
	want := []string{"Test.touchRegistersOnClosingSession", "SessionTracker.touchAndRegister"}
	if len(chain) != 2 || chain[0] != want[0] || chain[1] != want[1] {
		t.Errorf("call chain = %v, want %v", chain, want)
	}
}

func TestDynamicCoverage(t *testing.T) {
	prog := compile(t, zkRegressedSrc+`
class Test {
	static void one() {
		PrepProcessor p = new PrepProcessor();
		p.tree = new DataTree();
		p.tree.nodes = newMap();
		Session s = new Session();
		p.processCreate("/a", s);
	}
}
`)
	r := NewRunner(prog, nil, interp.Options{})
	if err := r.RunStatic("t", "Test", "one"); err != nil {
		t.Fatal(err)
	}
	if r.CoverageRatio() <= 0 || r.CoverageRatio() >= 1 {
		t.Errorf("coverage = %v, want strictly between 0 and 1", r.CoverageRatio())
	}
	if len(r.BranchesCovered) == 0 {
		t.Error("no branches recorded")
	}
}

func TestCheckerFor(t *testing.T) {
	sem := ephemeralSemantic()
	checker, ok := CheckerFor(sem, map[string]string{"session": "sess"})
	if !ok {
		t.Fatal("CheckerFor failed")
	}
	if checker.String() != "sess != null && !(sess.closing)" {
		t.Errorf("checker = %q", checker)
	}
	if _, ok := CheckerFor(sem, map[string]string{}); ok {
		t.Error("missing binding should fail")
	}
	// A receiver slot instantiates like an argument slot.
	receiver := &contract.Semantic{
		ID:     "hbase-snapshot-expiry",
		Kind:   contract.StateKind,
		Target: contract.TargetPattern{Callee: "Snapshot.materialize", Bind: map[string]int{"snap": contract.ReceiverSlot}},
		Pre:    smt.MustParsePredicate(`snap.expired == false`),
	}
	if checker, ok := CheckerFor(receiver, map[string]string{"snap": "snap"}); !ok || checker.String() != "!(snap.expired)" {
		t.Errorf("receiver checker = %v (ok=%v), want !(snap.expired)", checker, ok)
	}
}

func TestTranslateFragment(t *testing.T) {
	src := `
class C {
	void m(Session s, int n, list xs) {
		if (s != null && s.isClosing() == false) {
			log("a");
		}
		if (n * 2 > 4) {
			log("b");
		}
		if (xs.size() > 0) {
			log("c");
		}
	}
}

class Session {
	bool closing;

	bool isClosing() {
		return closing;
	}
}
`
	prog := compile(t, src)
	m := prog.Method("C", "m")
	env := newSFrame(prog)
	var results []string
	minij.WalkStmts(m.Body, func(st minij.Stmt) {
		ifs, ok := st.(*minij.If)
		if !ok {
			return
		}
		if f, ok := Translate(ifs.Cond, env); ok {
			results = append(results, f.String())
		} else {
			results = append(results, "<skip>")
		}
	})
	// Getter calls normalize to their bodies' field vocabulary
	// (s.isClosing() inlines to s.closing); nullary calls on containers
	// canonicalize to paths, so xs.size() > 0 is a translatable state
	// predicate; arithmetic on an unknown is not.
	want := []string{"s != null && !(s.closing)", "<skip>", "xs.size > 0"}
	if len(results) != 3 {
		t.Fatalf("results = %v", results)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Errorf("guard %d = %q, want %q", i, results[i], want[i])
		}
	}
}
