package smt

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) Formula {
	t.Helper()
	f, err := ParsePredicate(src)
	if err != nil {
		t.Fatalf("ParsePredicate(%q): %v", src, err)
	}
	return f
}

// mustSAT decides f uncached, failing the test on a solver error instead
// of folding it into the answer.
func mustSAT(t *testing.T, f Formula) bool {
	t.Helper()
	sat, err := SATLim(f, Limits{})
	if err != nil {
		t.Fatalf("SATLim(%s): %v", f, err)
	}
	return sat
}

// mustImplies reports p ⇒ q uncached, failing the test on a solver error.
func mustImplies(t *testing.T, p, q Formula) bool {
	t.Helper()
	ok, err := ImpliesLim(p, q, Limits{})
	if err != nil {
		t.Fatalf("ImpliesLim(%s, %s): %v", p, q, err)
	}
	return ok
}

// mustEquiv reports whether p and q entail each other.
func mustEquiv(t *testing.T, p, q Formula) bool {
	t.Helper()
	return mustImplies(t, p, q) && mustImplies(t, q, p)
}

func TestParsePredicate(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`s != null`, `s != null`},
		{`s == null`, `s == null`},
		{`s.closing == false`, `!(s.closing)`},
		{`s.isClosing() == false && s.ttl > 0`, `!(s.isClosing) && s.ttl > 0`},
		{`a || b && c`, `a || b && c`},
		{`!(a || b)`, `!(a || b)`},
		{`x == 3`, `x == 3`},
		{`x >= -2`, `x >= -2`},
		{`x < y`, `x < y`},
		{`mode == "observer"`, `mode == "observer"`},
		{`mode != "observer"`, `mode != "observer"`},
		{`true`, `true`},
		{`snap.expired`, `snap.expired`},
	}
	for _, c := range cases {
		f := mustParse(t, c.src)
		if got := f.String(); got != c.want {
			t.Errorf("ParsePredicate(%q).String() = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParsePredicateErrors(t *testing.T) {
	cases := []string{
		`s ==`,
		`&& a`,
		`s < null`,
		`s > "x"`,
		`(a || b`,
		`a b`,
		`s.`,
		`x == -`,
	}
	for _, src := range cases {
		if _, err := ParsePredicate(src); err == nil {
			t.Errorf("ParsePredicate(%q): expected error", src)
		}
	}
}

func TestSATBasics(t *testing.T) {
	cases := []struct {
		src string
		sat bool
	}{
		{`a && !a`, false},
		{`a || !a`, true},
		{`a && b`, true},
		{`x > 3 && x < 5`, true},  // x = 4
		{`x > 3 && x < 4`, false}, // no integer between
		{`x >= 3 && x <= 3 && x != 3`, false},
		{`x == 3 && x == 4`, false},
		{`x != 3 && x != 4`, true},
		{`x < y && y < x`, false},
		{`x <= y && y <= x && x != y`, false},
		{`x < y && y < z && z < x`, false},
		{`x < y && y < z && x < z`, true},
		{`s == null && s != null`, false},
		{`m == "a" && m == "b"`, false},
		{`m == "a" && m != "b"`, true},
		{`m == "a" && m != "a"`, false},
		{`x == 5 && x > 4 && x < 6`, true},
	}
	for _, c := range cases {
		f := mustParse(t, c.src)
		if got := mustSAT(t, f); got != c.sat {
			t.Errorf("SAT(%q) = %v, want %v", c.src, got, c.sat)
		}
	}
}

func TestImplies(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{`x == 3`, `x > 2`, true},
		{`x > 2`, `x == 3`, false},
		{`a && b`, `a`, true},
		{`a`, `a || b`, true},
		{`s != null && !s.closing`, `s != null`, true},
		{`s != null`, `s != null && !s.closing`, false},
		{`x > 5`, `x >= 5`, true},
		{`x >= 5`, `x > 5`, false},
		{`x == y && y == z`, `x == z`, true},
	}
	for _, c := range cases {
		p, q := mustParse(t, c.p), mustParse(t, c.q)
		if got := mustImplies(t, p, q); got != c.want {
			t.Errorf("Implies(%q, %q) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

// TestPaperWorkedExample reproduces the complement check from §3.2 of the
// paper: the checker for ephemeral node creation is
//
//	s != null && s.isClosing() == false && s.ttl > 0
//
// and a trace violates the semantic iff its path condition is satisfiable
// together with the checker's complement (missing conditions are
// unconstrained).
func TestPaperWorkedExample(t *testing.T) {
	checker := mustParse(t, `s != null && s.isClosing() == false && s.ttl > 0`)
	comp := Complement(checker)
	if got := comp.String(); got != `s == null || s.isClosing || s.ttl <= 0` {
		t.Errorf("complement = %q", got)
	}
	cases := []struct {
		trace    string
		violates bool
	}{
		// Trace creates the node when the session is null: violation.
		{`s == null`, true},
		// Trace checks null and closing but omits the ttl check: the
		// missing condition is treated as unconstrained, so the complement
		// is satisfiable via s.ttl <= 0: violation.
		{`s != null && s.isClosing() == false`, true},
		// Full guard: adheres to the semantic.
		{`s != null && s.isClosing() == false && s.ttl > 0`, false},
		// Stronger guard than required still adheres.
		{`s != null && s.isClosing() == false && s.ttl > 5`, false},
	}
	for _, c := range cases {
		pc := mustParse(t, c.trace)
		if got := mustSAT(t, NewAnd(pc, comp)); got != c.violates {
			t.Errorf("trace %q: violation = %v, want %v", c.trace, got, c.violates)
		}
	}
}

func TestComplementProperties(t *testing.T) {
	f := func(seed int64) bool {
		g := genFormula(newTestRng(seed), 4)
		comp := Complement(g)
		// f ∧ ¬f is UNSAT and f ∨ ¬f is valid.
		return !mustSAT(t, NewAnd(g, comp)) && !mustSAT(t, NewNot(NewOr(g, comp)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNNFPreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		g := genFormula(newTestRng(seed), 4)
		return mustEquiv(t, g, NNF(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNNFHasNoCompoundNegation(t *testing.T) {
	f := func(seed int64) bool {
		g := NNF(genFormula(newTestRng(seed), 4))
		ok := true
		var walk func(Formula)
		walk = func(h Formula) {
			switch n := h.(type) {
			case *Not:
				if _, isAtom := n.X.(*AtomF); !isAtom {
					ok = false
				}
			case *And:
				for _, x := range n.Xs {
					walk(x)
				}
			case *Or:
				for _, x := range n.Xs {
					walk(x)
				}
			}
		}
		walk(g)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRenameRoot(t *testing.T) {
	f := mustParse(t, `s != null && s.ttl > 0 && other.x == s.ttl`)
	g := RenameRoot(f, "s", "session")
	want := `session != null && session.ttl > 0 && other.x == session.ttl`
	if g.String() != want {
		t.Errorf("RenameRoot = %q, want %q", g.String(), want)
	}
	// Root named "other" must be untouched, including prefix-similar roots.
	h := RenameRoot(mustParse(t, `oth.x == 1 && other.x == 2`), "other", "o2")
	if h.String() != `oth.x == 1 && o2.x == 2` {
		t.Errorf("prefix-safe rename = %q", h.String())
	}
}

func TestAtomsAndRoots(t *testing.T) {
	f := mustParse(t, `s != null && s.ttl > 0 && b.locs >= 1 && s.ttl > 0`)
	atoms := Atoms(f)
	if len(atoms) != 3 {
		t.Errorf("Atoms = %d (%v), want 3 (dedup)", len(atoms), atoms)
	}
	roots := Roots(f)
	if !roots["s"] || !roots["b"] || len(roots) != 2 {
		t.Errorf("Roots = %v", roots)
	}
}

func TestSolveModel(t *testing.T) {
	f := mustParse(t, `a && x > 3`)
	sat, model, err := SolveLim(f, Limits{})
	if err != nil || !sat {
		t.Fatalf("SolveLim: sat=%v err=%v", sat, err)
	}
	if len(model) == 0 {
		t.Error("expected non-empty model")
	}
	if !strings.Contains(model.String(), "b:a=true") {
		t.Errorf("model = %v, want a=true", model)
	}
}

func TestEquivOperatorFolding(t *testing.T) {
	// !(x < 3) must be equivalent to x >= 3, sharing one DPLL variable.
	f := NewNot(mustParse(t, `x < 3`))
	g := mustParse(t, `x >= 3`)
	if !mustEquiv(t, f, g) {
		t.Error("!(x < 3) not equivalent to x >= 3")
	}
	if len(Atoms(NewAnd(f, g))) != 1 {
		t.Errorf("atoms = %v, want 1 shared", Atoms(NewAnd(f, g)))
	}
}

func TestConstFolding(t *testing.T) {
	if NewAnd().String() != "true" {
		t.Error("empty And should be true")
	}
	if NewOr().String() != "false" {
		t.Error("empty Or should be false")
	}
	if NewAnd(True(), False()).String() != "false" {
		t.Error("And with false should fold")
	}
	if NewOr(False(), True()).String() != "true" {
		t.Error("Or with true should fold")
	}
	if NewNot(NewNot(NewAtom(BoolAtom("a")))).String() != "a" {
		t.Error("double negation should collapse")
	}
}

// genFormula builds a random formula over a small mixed alphabet.
func genFormula(r *testRng, depth int) Formula {
	if depth <= 0 {
		return genLeaf(r)
	}
	switch r.intn(6) {
	case 0:
		return NewNot(genFormula(r, depth-1))
	case 1, 2:
		return NewAnd(genFormula(r, depth-1), genFormula(r, depth-1))
	case 3, 4:
		return NewOr(genFormula(r, depth-1), genFormula(r, depth-1))
	default:
		return genLeaf(r)
	}
}

func genLeaf(r *testRng) Formula {
	vars := []string{"x", "y", "z"}
	bools := []string{"p", "q", "s.closing"}
	switch r.intn(4) {
	case 0:
		return NewAtom(BoolAtom(bools[r.intn(len(bools))]))
	case 1:
		return NewAtom(NullAtom(vars[r.intn(len(vars))]))
	case 2:
		ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return NewAtom(CmpCAtom(vars[r.intn(len(vars))], ops[r.intn(len(ops))], int64(r.intn(5))))
	default:
		ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		a := vars[r.intn(len(vars))]
		b := vars[r.intn(len(vars))]
		return NewAtom(CmpVAtom(a, ops[r.intn(len(ops))], b))
	}
}

type testRng struct{ state uint64 }

func newTestRng(seed int64) *testRng {
	return &testRng{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *testRng) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state >> 16
}

func (r *testRng) intn(n int) int { return int(r.next() % uint64(n)) }

// Property: rendering a formula and re-parsing it preserves semantics —
// the predicate language and the printer are mutually consistent.
func TestRenderParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := genFormula(newTestRng(seed), 3)
		text := g.String()
		parsed, err := ParsePredicate(text)
		if err != nil {
			t.Logf("parse %q: %v", text, err)
			return false
		}
		return mustEquiv(t, g, parsed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAndRenderIsNewAndRender: AndRender, given each conjunct's render,
// renders what NewAnd builds, for random non-constant conjuncts of every
// shape (nested conjunctions, disjunctions, negations), one to five of
// them.
func TestAndRenderIsNewAndRender(t *testing.T) {
	r := newTestRng(11)
	for i := 0; i < 2000; i++ {
		var fs []Formula
		for n := 1 + r.intn(5); len(fs) < n; {
			if f := genDiffFormula(r, r.intn(4)); !isConst(f) {
				fs = append(fs, f)
			}
		}
		got := AndRender(len(fs), func(i int) (Formula, string) { return fs[i], fs[i].String() })
		if want := NewAnd(fs...).String(); got != want {
			t.Fatalf("#%d: AndRender = %q, NewAnd renders %q", i, got, want)
		}
	}
	if got := AndRender(0, nil); got != NewAnd().String() {
		t.Fatalf("AndRender of nothing = %q, want %q", got, NewAnd().String())
	}
}

func isConst(f Formula) bool {
	_, ok := f.(*Const)
	return ok
}
