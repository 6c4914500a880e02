package minij

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

const sampleProgram = `
class Session {
	bool closing;
	int ttl;
	string owner;

	bool isClosing() {
		return closing;
	}

	void close() {
		closing = true;
	}
}

class SessionManager {
	map sessions;

	void init() {
		sessions = newMap();
	}

	Session find(string id) {
		if (sessions.has(id)) {
			return sessions.get(id);
		}
		return null;
	}

	bool touch(string id, int t) {
		Session s = find(id);
		if (s == null || s.isClosing()) {
			return false;
		}
		s.ttl = s.ttl + t;
		return true;
	}

	static int add(int a, int b) {
		return a + b;
	}
}
`

func mustParseAndCheck(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := Check(prog); err != nil {
		t.Fatalf("Check: %v", err)
	}
	return prog
}

func TestParseSampleProgram(t *testing.T) {
	prog := mustParseAndCheck(t, sampleProgram)
	if len(prog.Classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(prog.Classes))
	}
	sess := prog.Class("Session")
	if sess == nil {
		t.Fatal("class Session not found")
	}
	if len(sess.Fields) != 3 {
		t.Errorf("Session fields = %d, want 3", len(sess.Fields))
	}
	if f := sess.Field("ttl"); f == nil || f.Type.Kind != TypeInt {
		t.Errorf("ttl field = %+v, want int", f)
	}
	m := prog.Method("SessionManager", "touch")
	if m == nil {
		t.Fatal("SessionManager.touch not found")
	}
	if m.Static {
		t.Error("touch should not be static")
	}
	if len(m.Params) != 2 {
		t.Errorf("touch params = %d, want 2", len(m.Params))
	}
	if add := prog.Method("SessionManager", "add"); add == nil || !add.Static {
		t.Error("add should be static")
	}
}

func TestStatementIDsAreDense(t *testing.T) {
	prog := mustParseAndCheck(t, sampleProgram)
	n := prog.NumStmts()
	if n == 0 {
		t.Fatal("no statements")
	}
	seen := make([]bool, n)
	for _, m := range prog.Methods() {
		WalkStmts(m.Body, func(s Stmt) {
			id := s.ID()
			if id < 0 || id >= n {
				t.Fatalf("stmt ID %d out of range [0,%d)", id, n)
			}
			if seen[id] {
				t.Fatalf("duplicate stmt ID %d", id)
			}
			seen[id] = true
			if prog.StmtByID(id) != s {
				t.Fatalf("StmtByID(%d) mismatch", id)
			}
			if prog.MethodOf(id) != m {
				t.Fatalf("MethodOf(%d) = %v, want %s", id, prog.MethodOf(id), m.FullName())
			}
		})
	}
	for id, ok := range seen {
		if !ok {
			t.Errorf("stmt ID %d unassigned", id)
		}
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
class C {
	int loops(list xs) {
		int total = 0;
		for (int i = 0; i < 10; i = i + 1) {
			total = total + i;
		}
		for (x in xs) {
			total = total + len(str(x));
		}
		while (total > 100) {
			total = total - 1;
			if (total == 50) {
				break;
			} else {
				continue;
			}
		}
		return total;
	}

	void exceptions() {
		try {
			throw "boom";
		} catch (e) {
			log(e);
		}
	}

	void locks(map m) {
		synchronized (m) {
			ioWrite("snapshot", m.size());
		}
	}
}
`
	prog := mustParseAndCheck(t, src)
	m := prog.Method("C", "loops")
	var fors, foreaches, whiles, ifs int
	WalkStmts(m.Body, func(s Stmt) {
		switch s.(type) {
		case *For:
			fors++
		case *ForEach:
			foreaches++
		case *While:
			whiles++
		case *If:
			ifs++
		}
	})
	if fors != 1 || foreaches != 1 || whiles != 1 || ifs != 1 {
		t.Errorf("control counts: for=%d foreach=%d while=%d if=%d", fors, foreaches, whiles, ifs)
	}
}

func TestParseElseIfChain(t *testing.T) {
	src := `
class C {
	int classify(int x) {
		if (x < 0) {
			return -1;
		} else if (x == 0) {
			return 0;
		} else {
			return 1;
		}
	}
}
`
	prog := mustParseAndCheck(t, src)
	m := prog.Method("C", "classify")
	first, ok := m.Body.Stmts[0].(*If)
	if !ok {
		t.Fatalf("first stmt is %T, want *If", m.Body.Stmts[0])
	}
	second, ok := first.Else.(*If)
	if !ok {
		t.Fatalf("else branch is %T, want *If", first.Else)
	}
	if _, ok := second.Else.(*Block); !ok {
		t.Fatalf("final else is %T, want *Block", second.Else)
	}
}

func TestParsePrecedence(t *testing.T) {
	src := `
class C {
	bool f(int a, int b, bool p, bool q) {
		return p || q && a + b * 2 < 10;
	}
}
`
	prog := mustParseAndCheck(t, src)
	m := prog.Method("C", "f")
	ret := m.Body.Stmts[0].(*Return)
	top, ok := ret.Value.(*Binary)
	if !ok || top.Op != "||" {
		t.Fatalf("top op = %v, want ||", ret.Value)
	}
	and, ok := top.Y.(*Binary)
	if !ok || and.Op != "&&" {
		t.Fatalf("right of || = %v, want &&", top.Y)
	}
	cmp, ok := and.Y.(*Binary)
	if !ok || cmp.Op != "<" {
		t.Fatalf("right of && = %v, want <", and.Y)
	}
	if got := CanonExpr(cmp.X); got != "a + b * 2" {
		t.Errorf("left of < = %q, want %q", got, "a + b * 2")
	}

	// One row per ordered pair of binary operators: a OP1 b OP2 c groups
	// to the left unless OP2 sits on a tighter grammar level than OP1. The
	// six levels are written out here, loosest first, rather than read from
	// opPrec, which the parser and the printer share; and the canonical
	// render of each tree must parse back to the same tree.
	levels := [][]string{{"||"}, {"&&"}, {"==", "!="}, {"<", "<=", ">", ">="}, {"+", "-"}, {"*", "/", "%"}}
	parseReturn := func(expr string) Expr {
		t.Helper()
		prog, err := Parse("class C { void f() { return " + expr + "; } }")
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		return prog.Method("C", "f").Body.Stmts[0].(*Return).Value
	}
	for l1, ops1 := range levels {
		for _, op1 := range ops1 {
			for l2, ops2 := range levels {
				for _, op2 := range ops2 {
					src := "a " + op1 + " b " + op2 + " c"
					want := "((a " + op1 + " b) " + op2 + " c)"
					if l2 > l1 {
						want = "(a " + op1 + " (b " + op2 + " c))"
					}
					tree := parseReturn(src)
					if got := grouped(tree); got != want {
						t.Errorf("%s parses to %s, want %s", src, got, want)
					}
					if got := grouped(parseReturn(CanonExpr(tree))); got != want {
						t.Errorf("%s renders to %q, which parses to %s, want %s", src, CanonExpr(tree), got, want)
					}
				}
			}
		}
	}
}

// grouped renders e with every binary operation in parentheses.
func grouped(e Expr) string {
	if b, ok := e.(*Binary); ok {
		return "(" + grouped(b.X) + " " + b.Op + " " + grouped(b.Y) + ")"
	}
	return CanonExpr(e)
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`class`, "expected identifier"},
		{`class A { int`, "expected identifier"},
		{`class A { static int x; }`, "fields may not be static"},
		{`class A { void x; }`, "fields may not have void type"},
		{`class A { void m() { 1 = 2; } }`, "left side of assignment"},
		{`class A { void m() { if x { } } }`, `expected "("`},
		{`class A { void m() { return 1 } }`, `expected ";"`},
		{`class A { void m() { x.; } }`, "expected identifier"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): want error containing %q, got nil", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`class A { void m() { x = 1; } }`, "undefined variable"},
		{`class A { void m() { int x = 1; int x = 2; } }`, "redeclaration"},
		{`class A { void m() { foo(); } }`, "undefined function"},
		{`class A { void m() { log(1, 2); } }`, "want 1"},
		{`class A { int f; void m() { bool b = f; } }`, "cannot initialize"},
		{`class A { void m() { if (1) { } } }`, "condition must be bool"},
		{`class A { void m(B b) { } }`, "unknown class"},
		{`class A { static void m() { n(); } void n() { } }`, "calls instance method"},
		{`class A { void m() { return 1; } }`, "void method"},
		{`class A { int m() { return; } }`, "missing return value"},
		{`class A { void m(A a) { a.nope(); } }`, "no method"},
		{`class A { void m(A a) { int x = a.f; } }`, "no field"},
		{`class A { void m() { throw 3; } }`, "throw requires a string"},
		{`class A { void m() { synchronized (1) { } } }`, "synchronized requires a reference"},
		{`class A { void m(list xs) { xs.put(1, 2); } }`, "no method"},
		{`class A { void m() { A a = new A(1); } }`, "no init method"},
	}
	for _, c := range cases {
		prog, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): unexpected parse error %v", c.src, err)
			continue
		}
		err = Check(prog)
		if err == nil {
			t.Errorf("Check(%q): want error containing %q, got nil", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Check(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestResolveCallKinds(t *testing.T) {
	src := `
class Util {
	static int twice(int x) {
		return x * 2;
	}
}

class C {
	int n;

	int helper() {
		return n;
	}

	void m(list xs) {
		int a = helper();
		int b = Util.twice(a);
		xs.add(b);
		log(b);
	}
}
`
	prog := mustParseAndCheck(t, src)
	m := prog.Method("C", "m")
	kinds := map[string]CallKind{}
	WalkExprs(m.Body, func(e Expr) {
		if c, ok := e.(*Call); ok {
			kinds[c.Name] = c.Kind
		}
	})
	want := map[string]CallKind{
		"helper": CallSelf,
		"twice":  CallStatic,
		"add":    CallInstance,
		"log":    CallBuiltin,
	}
	for name, k := range want {
		if kinds[name] != k {
			t.Errorf("call %s kind = %v, want %v", name, kinds[name], k)
		}
	}
}

// TestParseAllocs: Parse pulls its tokens from the lexer instead of
// materializing them. This 50 KB source lexes to 0.37 tokens per byte, so
// a token slice alone, sized exactly, would take about 18 bytes per source
// byte, and one that regrows as it lexes about 70; the whole parse takes
// about 20 without one. (The 52 KB stress system parsed in 4.2 MB with a
// token slice and in 0.70 MB without.)
func TestParseAllocs(t *testing.T) {
	var sb strings.Builder
	for i := 0; sb.Len() < 50_000; i++ {
		fmt.Fprintf(&sb, `class K%[1]d {
	int f;
	K%[1]d next;
	int m(int a, K%[1]d k) {
		if (a > %[1]d && k != null) {
			return k.m(a - 1, k.next);
		}
		return f + %[1]d;
	}
}
`, i)
	}
	src := sb.String()
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(src))
	if perByte > 28 {
		t.Fatalf("parsing a %d-byte source allocates %.1f bytes per source byte, want at most 28", len(src), perByte)
	}
}
