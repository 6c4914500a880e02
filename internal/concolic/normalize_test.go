package concolic

import (
	"testing"

	"lisa/internal/contract"
	"lisa/internal/interp"
	"lisa/internal/minij"
	"lisa/internal/smt"
)

// The getter-normalization fixture: guards written four different ways must
// all normalize to the same field-vocabulary formula.
const getterSrc = `
class Lease {
	string holder;
	bool expired;
	int ttl;

	bool isValid() {
		return !expired;
	}

	bool isExpired() {
		return expired;
	}

	int remaining() {
		return ttl;
	}
}

class Chain {
	list ops;

	void append(Lease l, string op) {
		ops.add(op);
	}
}

class A {
	Chain chain;

	void viaIsValid(Lease l, string op) {
		if (l != null && l.isValid()) {
			chain.append(l, op);
		}
	}
}

class B {
	Chain chain;

	void viaIsExpiredEqFalse(Lease l, string op) {
		if (l == null || l.isExpired() == true) {
			return;
		}
		chain.append(l, op);
	}
}

class C {
	Chain chain;

	void viaField(Lease l, string op) {
		if (l != null && l.expired == false) {
			chain.append(l, op);
		}
	}
}

class D {
	Chain chain;

	void viaNotIsValid(Lease l, string op) {
		if (l == null || !l.isValid()) {
			throw "LeaseExpired";
		}
		chain.append(l, op);
	}
}
`

// TestGetterNormalizationUnifiesVocabulary: all four guard spellings must
// produce the identical path condition over the backing field, and all must
// verify against a rule written over the field.
func TestGetterNormalizationUnifiesVocabulary(t *testing.T) {
	prog := compile(t, getterSrc)
	sem := &contract.Semantic{
		ID:   "lease-field-rule",
		Kind: contract.StateKind,
		Target: contract.TargetPattern{
			Callee: "Chain.append",
			Bind:   map[string]int{"l": 0},
		},
		Pre: smt.MustParsePredicate(`l != null && l.expired == false`),
	}
	sites := contract.Match(sem, prog)
	if len(sites) != 4 {
		t.Fatalf("sites = %d, want 4", len(sites))
	}
	want := "l != null && !(l.expired)"
	for _, site := range sites {
		paths, _ := StaticPaths(prog, site, Options{})
		if len(paths) != 1 {
			t.Fatalf("site %s: %d paths", site, len(paths))
		}
		if got := paths[0].Cond.String(); got != want {
			t.Errorf("site %s: cond = %q, want %q", site, got, want)
		}
		if v := checkStaticPath(t, sem, paths[0]); v != VerdictVerified {
			t.Errorf("site %s: verdict = %v, want VERIFIED", site, v)
		}
	}
}

// TestGetterNormalizationIntGetter: a getter returning an int field inlines
// as a term usable in comparisons.
func TestGetterNormalizationIntGetter(t *testing.T) {
	src := getterSrc + `
class E {
	Chain chain;

	void viaRemaining(Lease l, string op) {
		if (l != null && l.remaining() > 0) {
			chain.append(l, op);
		}
	}
}
`
	prog := compile(t, src)
	sem := &contract.Semantic{
		ID:   "lease-ttl-rule",
		Kind: contract.StateKind,
		Target: contract.TargetPattern{
			Callee: "Chain.append",
			Bind:   map[string]int{"l": 0},
		},
		Pre: smt.MustParsePredicate(`l != null && l.ttl > 0`),
	}
	sites := contract.Match(sem, prog)
	var eSite *contract.Site
	for _, s := range sites {
		if s.Method.FullName() == "E.viaRemaining" {
			eSite = s
		}
	}
	if eSite == nil {
		t.Fatal("E.viaRemaining site not matched")
	}
	paths, _ := StaticPaths(prog, eSite, Options{})
	if len(paths) != 1 {
		t.Fatalf("paths = %d", len(paths))
	}
	if got := paths[0].Cond.String(); got != "l != null && l.ttl > 0" {
		t.Errorf("cond = %q", got)
	}
	if v := checkStaticPath(t, sem, paths[0]); v != VerdictVerified {
		t.Errorf("verdict = %v", v)
	}
}

// TestGetterNormalizationDepthBound: mutually recursive getters must not
// hang; the inliner gives up at the depth bound and falls back to the
// canonical path form.
func TestGetterNormalizationDepthBound(t *testing.T) {
	src := `
class Node {
	Node next;
	bool flag;

	bool deep() {
		return next.deep2();
	}

	bool deep2() {
		return next.deep();
	}
}

class User {
	void use(Node n) {
		if (n != null && n.deep()) {
			touch(n);
		}
	}

	void touch(Node n) {
		log("t");
	}
}
`
	prog := compile(t, src)
	sem := &contract.Semantic{
		ID:   "node-rule",
		Kind: contract.StateKind,
		Target: contract.TargetPattern{
			Callee: "User.touch",
			Bind:   map[string]int{"n": 0},
		},
		Pre: smt.MustParsePredicate(`n != null`),
	}
	sites := contract.Match(sem, prog)
	paths, _ := StaticPaths(prog, sites[0], Options{})
	if len(paths) != 1 {
		t.Fatalf("paths = %d", len(paths))
	}
	// The recursive getter falls back to an opaque chained path; the rule
	// over n != null still verifies.
	if v := checkStaticPath(t, sem, paths[0]); v != VerdictVerified {
		t.Errorf("verdict = %v (cond=%s)", v, paths[0].Cond)
	}
}

// TestGetterNormalizationImpureNotInlined: methods with parameters, extra
// statements, or static receivers keep the canonical path form.
func TestGetterNormalizationImpureNotInlined(t *testing.T) {
	src := `
class Res {
	bool open;
	int hits;

	bool check(int level) {
		return open;
	}

	bool checkAndCount() {
		hits = hits + 1;
		return open;
	}
}

class User {
	void use(Res r) {
		if (r.checkAndCount()) {
			touch(r);
		}
	}

	void touch(Res r) {
		log("t");
	}
}
`
	prog := compile(t, src)
	m := prog.Method("User", "use")
	env := newSFrame(prog)
	var got string
	minij.WalkStmts(m.Body, func(st minij.Stmt) {
		if ifs, ok := st.(*minij.If); ok {
			if f, ok := Translate(ifs.Cond, env); ok {
				got = f.String()
			}
		}
	})
	// Two statements in the body: not a pure getter, keeps the call path.
	if got != "r.checkAndCount" {
		t.Errorf("impure method translated to %q, want canonical path", got)
	}
}

// TestPostconditionChecked: a semantic with a postcondition Q has it
// evaluated against the state immediately after the target statement.
func TestPostconditionChecked(t *testing.T) {
	src := `
class Ledger {
	bool sealed;
	list entries;

	void init() {
		entries = newList();
		sealed = false;
	}

	void commit(Txn t, bool mark) {
		entries.add(t.id);
		if (mark) {
			t.applied = true;
		}
	}
}

class Txn {
	string id;
	bool applied;
}

class Good {
	static void run() {
		Ledger l = new Ledger();
		Txn t = new Txn();
		t.id = "t1";
		l.commit(t, true);
	}
}

class Bad {
	static void run() {
		Ledger l = new Ledger();
		Txn t = new Txn();
		t.id = "t2";
		l.commit(t, false);
		log(t.id);
	}
}
`
	// Target the statement *calling* commit, with Q over the txn state
	// after the call returns.
	prog := compile(t, src)
	sem := &contract.Semantic{
		ID:   "txn-applied",
		Kind: contract.StateKind,
		Target: contract.TargetPattern{
			Callee: "Ledger.commit",
			Bind:   map[string]int{"t": 0},
		},
		Pre:  smt.MustParsePredicate(`t != null`),
		Post: smt.MustParsePredicate(`t.applied == true`),
	}
	if err := sem.Validate(); err != nil {
		t.Fatal(err)
	}
	sites := contract.Match(sem, prog)
	runner := NewRunner(prog, sites, interp.Options{})
	if err := runner.RunStatic("good", "Good", "run"); err != nil {
		t.Fatal(err)
	}
	if err := runner.RunStatic("bad", "Bad", "run"); err != nil {
		t.Fatal(err)
	}
	byTest := map[string]Tri{}
	for _, h := range runner.Hits {
		byTest[h.TestName] = h.PostHolds
	}
	if byTest["good"] != TriTrue {
		t.Errorf("good post = %v, want true", byTest["good"])
	}
	// Bad passes mark=false, so commit returns without applying the txn;
	// the postcondition observation point sees applied == false.
	if byTest["bad"] != TriFalse {
		t.Errorf("bad post = %v, want false", byTest["bad"])
	}
}
