package smt

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestWitnessSatisfiesFormula: any model returned by SolveLim must make
// the formula true under three-valued evaluation.
func TestWitnessSatisfiesFormula(t *testing.T) {
	f := func(seed int64) bool {
		g := genFormula(newTestRng(seed), 4)
		sat, model, err := SolveLim(g, Limits{})
		if err != nil {
			return true // budget exhaustion is allowed, not a soundness bug
		}
		if !sat {
			return true
		}
		return eval3(g, model) == triTrue
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSolverDuality: true entails f iff ¬f is unsatisfiable, and a valid
// f is satisfiable.
func TestSolverDuality(t *testing.T) {
	f := func(seed int64) bool {
		g := genFormula(newTestRng(seed), 3)
		valid := !mustSAT(t, NewNot(g))
		return mustImplies(t, True(), g) == valid && (!valid || mustSAT(t, g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestImpliesTransitive: random implication chains must be transitive.
func TestImpliesTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRng(seed)
		a := genFormula(r, 2)
		b := genFormula(r, 2)
		c := genFormula(r, 2)
		if mustImplies(t, a, b) && mustImplies(t, b, c) {
			return mustImplies(t, a, c)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDBMEdgeCases(t *testing.T) {
	cases := []struct {
		src string
		sat bool
	}{
		// Large constants near the interval arithmetic edges.
		{`x > 1000000000 && x < 1000000002`, true},
		{`x > 1000000000 && x < 1000000001`, false},
		{`x >= -1000000000 && x <= -1000000000 && x != -1000000000`, false},
		// Chains of variable orderings.
		{`a < b && b < c && c < d && d < a`, false},
		{`a < b && b < c && c < d && a < d`, true},
		{`a <= b && b <= c && c <= a && a != c`, false},
		// Equality congruence through a chain.
		{`a == b && b == c && c == d && a != d`, false},
		{`a == b && b == c && a != d`, true},
		// Mixed constants and variables.
		{`a == 5 && b == a && b != 5`, false},
		{`a == 5 && a < b && b < 7`, true},  // b = 6
		{`a == 5 && a < b && b < 6`, false}, // no integer between 5 and 6
		// Same-variable tautologies and contradictions.
		{`x == x`, true},
		{`x != x`, false},
		{`x < x`, false},
		{`x <= x`, true},
	}
	for _, c := range cases {
		f := mustParse(t, c.src)
		if got := mustSAT(t, f); got != c.sat {
			t.Errorf("SAT(%q) = %v, want %v", c.src, got, c.sat)
		}
	}
}

func TestMixedSortsIndependent(t *testing.T) {
	// The same path used as a bool predicate and in int comparisons lives
	// in separate theories by design (corpus programs never mix sorts on
	// one path).
	f := mustParse(t, `flag && x > 3 && s == null && m == "a"`)
	sat, model, err := SolveLim(f, Limits{})
	if err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	if len(model) != 4 {
		t.Errorf("model = %v", model)
	}
}

func TestComplementOfComplement(t *testing.T) {
	f := func(seed int64) bool {
		g := genFormula(newTestRng(seed), 3)
		return mustEquiv(t, g, Complement(Complement(g)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAtomKeyPolarity(t *testing.T) {
	// x != 3 and x == 3 share a key with opposite polarity.
	k1, neg1 := CmpCAtom("x", OpEq, 3).Key()
	k2, neg2 := CmpCAtom("x", OpNe, 3).Key()
	if k1 != k2 || neg1 == neg2 {
		t.Errorf("keys: (%s,%v) vs (%s,%v)", k1, neg1, k2, neg2)
	}
	// x < y and y > x share a key with the same polarity.
	k3, neg3 := CmpVAtom("x", OpLt, "y").Key()
	k4, neg4 := CmpVAtom("y", OpGt, "x").Key()
	if k3 != k4 || neg3 != neg4 {
		t.Errorf("flip keys: (%s,%v) vs (%s,%v)", k3, neg3, k4, neg4)
	}
	// x >= y is the negation of x < y.
	k5, neg5 := CmpVAtom("x", OpGe, "y").Key()
	if k5 != k3 || neg5 == neg3 {
		t.Errorf("negation keys: (%s,%v) vs (%s,%v)", k5, neg5, k3, neg3)
	}
}

// TestAtomKeyTable pins Atom.Key to the fmt rendering it replaced, for
// every atom kind and operator, negative and multi-digit constants, and
// strings that need escapes: solver cache keys and DPLL variables are
// built from these bytes.
func TestAtomKeyTable(t *testing.T) {
	// fmtKey is the fmt.Sprintf rendering Key used before it built its
	// keys by concatenation.
	fmtKey := func(a Atom) string {
		op := a.Op
		switch op {
		case OpNe:
			op = OpEq
		case OpGt:
			op = OpLe
		case OpGe:
			op = OpLt
		}
		switch a.Kind {
		case AtomBool:
			return "b:" + a.Path
		case AtomNull:
			return "n:" + a.Path
		case AtomCmpC:
			return fmt.Sprintf("c:%s %s %d", a.Path, op, a.IntVal)
		case AtomCmpV:
			p1, p2, op := a.Path, a.Path2, a.Op
			if p2 < p1 {
				p1, p2 = p2, p1
				op = op.Flip()
			}
			switch op {
			case OpNe:
				op = OpEq
			case OpGt:
				op = OpLe
			case OpGe:
				op = OpLt
			}
			return fmt.Sprintf("v:%s %s %s", p1, op, p2)
		case AtomStrEq:
			return fmt.Sprintf("s:%s == %q", a.Path, a.StrVal)
		}
		return "<?>"
	}
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	var atoms []Atom
	for _, path := range []string{"x", "s.ttl", "a.b.c"} {
		atoms = append(atoms, BoolAtom(path), NullAtom(path))
		for _, op := range ops {
			for _, c := range []int64{0, 7, -1, 42, -9000, 1234567890123, -9223372036854775808} {
				atoms = append(atoms, CmpCAtom(path, op, c))
			}
			for _, other := range []string{"a", "y", "s.ttl", "z.q"} {
				atoms = append(atoms, CmpVAtom(path, op, other))
			}
		}
		for _, op := range []CmpOp{OpEq, OpNe} {
			for _, str := range []string{"", "/live", `quote " and \\ slash`, "tab\tnewline\n", "\x00ctl\x1f", "\xff", "ünïcode ☃"} {
				atoms = append(atoms, StrEqAtom(path, op, str))
			}
		}
	}
	for _, a := range atoms {
		got, _ := a.Key()
		if want := fmtKey(a); got != want {
			t.Errorf("Key(%s) = %q, want %q", a, got, want)
		}
	}
	for a, want := range map[Atom]string{
		CmpCAtom("s.ttl", OpGt, -12):   "c:s.ttl <= -12",
		CmpVAtom("y", OpGe, "x"):       "v:x <= y",
		StrEqAtom("p", OpNe, "a\"b\n"): `s:p == "a\"b\n"`,
		{Kind: AtomKind(99)}:           "<?>",
	} {
		if got, _ := a.Key(); got != want {
			t.Errorf("Key(%+v) = %q, want %q", a, got, want)
		}
	}
}
