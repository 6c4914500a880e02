package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"lisa/internal/callgraph"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/experiments"
	"lisa/internal/minij"
	"lisa/internal/program"
	"lisa/internal/ticket"
)

// concatenated is the source PrepareSnapshot compiled before the suite was
// linked: the system source with every test's source appended.
func concatenated(src string, tests []ticket.TestCase) string {
	for _, tc := range tests {
		src += "\n" + tc.Source
	}
	return src
}

// linkVersion prepares src with tests on a fresh engine and snapshot cache
// and returns the context, the error, and the cache's counters.
func linkVersion(t *testing.T, src string, tests []ticket.TestCase) (*core.AssertContext, error, program.CacheStats) {
	t.Helper()
	e := core.New()
	e.Snapshots = program.NewCache(0)
	snap, err := e.LoadSnapshot(src)
	if err != nil {
		t.Fatalf("system does not build: %v", err)
	}
	ctx, err := e.PrepareSnapshot(snap, tests, nil)
	return ctx, err, e.Snapshots.Stats()
}

// TestLinkedEqualsConcatenated: for every corpus version that builds with
// its case's suite, and every E-M1 guard mutant, the linked analysis
// program equals the concatenated compile in everything the analysis
// reads: canonical render and method digests, call-graph edges in order
// with their dynamic flags, the method and statement behind every
// statement ID, and the kind and receiver type of every call.
// A version that does not build with its suite, and a suite that reopens a
// system class, fall back to the concatenated compile: the same error, or
// the same program, with the fallback counted.
func TestLinkedEqualsConcatenated(t *testing.T) {
	linked, fellBack := 0, 0
	check := func(name, src string, tests []ticket.TestCase) {
		ctx, err, stats := linkVersion(t, src, tests)
		want, cerr := program.Compile(concatenated(src, tests))
		if cerr != nil {
			if err == nil || err.Error() != "system+tests: "+cerr.Error() {
				t.Errorf("%s: error %v, want the concatenated compile's %v", name, err, cerr)
			}
			if stats.LinkFallbacks != 1 || stats.Links != 0 {
				t.Errorf("%s: %d links, %d fallbacks; want the one fallback", name, stats.Links, stats.LinkFallbacks)
			}
			fellBack++
			return
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if stats.Links != 1 || stats.LinkFallbacks != 0 || stats.Compiles != 1 {
			t.Errorf("%s: %d compiles, %d links, %d fallbacks; want one of each but fallbacks", name, stats.Compiles, stats.Links, stats.LinkFallbacks)
		}
		if diff := programDiff(ctx, want); diff != "" {
			t.Errorf("%s: linked program differs from the concatenated compile: %s", name, diff)
		}
		linked++
	}
	for _, cs := range corpus.Load().Cases {
		check(cs.ID+" head", cs.Head(), cs.Tests)
		if cs.Latest != "" {
			check(cs.ID+" latest", cs.Latest, cs.Tests)
		}
		e := core.New()
		for _, tk := range cs.Tickets {
			check(cs.ID+" "+tk.ID+":buggy", tk.BuggySource, cs.Tests)
			check(cs.ID+" "+tk.ID+":fixed", tk.FixedSource, cs.Tests)
			if _, err := e.ProcessTicket(tk); err != nil {
				t.Fatal(err)
			}
		}
		roots := map[string]bool{}
		for _, sem := range e.Registry.All() {
			for slot := range sem.Target.Bind {
				roots[slot] = true
			}
		}
		for i, mu := range experiments.MutateGuards(cs, roots) {
			check(fmt.Sprintf("%s mutant %d", cs.ID, i), mu.Source, cs.Tests)
		}
	}
	if linked != 110 || fellBack != 32 {
		t.Errorf("%d versions linked and %d fell back, want 110 (54 corpus versions, 56 mutants) and 32", linked, fellBack)
	}

	// A test class that reopens a system class merges into it when
	// concatenated, so it cannot link.
	cs := corpus.Load().Get("zk-ephemeral")
	sysClass := cs.Head()[strings.Index(cs.Head(), "class ")+len("class "):]
	sysClass = sysClass[:strings.IndexAny(sysClass, " {")]
	reopen := append(append([]ticket.TestCase(nil), cs.Tests...), ticket.TestCase{
		Name: "Reopen.extra", Class: "Reopen", Method: "extra",
		Source: "class " + sysClass + " {\n\tstatic void reopened() {\n\t}\n}",
	})
	ctx, err, stats := linkVersion(t, cs.Head(), reopen)
	if err != nil {
		t.Fatal(err)
	}
	want, err := program.Compile(concatenated(cs.Head(), reopen))
	if err != nil {
		t.Fatal(err)
	}
	if stats.LinkFallbacks != 1 || stats.Links != 0 {
		t.Errorf("reopening suite: %d links, %d fallbacks; want the one fallback", stats.Links, stats.LinkFallbacks)
	}
	if ctx.SnapshotAll.Source() != concatenated(cs.Head(), reopen) {
		t.Error("reopening suite: the analysis snapshot is not the concatenated compile")
	}
	if diff := programDiff(ctx, want); diff != "" {
		t.Errorf("reopening suite: %s", diff)
	}
}

// programDiff describes the first difference between ctx's analysis
// program and want, or returns "".
func programDiff(ctx *core.AssertContext, want *minij.Program) string {
	got := ctx.ProgAll
	if g, w := minij.FormatProgram(got), minij.FormatProgram(want); g != w {
		return "canonical render differs"
	}
	gm, wm := got.Methods(), want.Methods()
	if len(gm) != len(wm) {
		return fmt.Sprintf("%d methods, want %d", len(gm), len(wm))
	}
	for i, m := range wm {
		if ctx.SnapshotAll.MethodDigest(gm[i]) != program.HashParts("canon", minij.FormatMethod(m)) {
			return "method digest of " + m.FullName()
		}
		if gm[i].FullName() != m.FullName() {
			return fmt.Sprintf("method %d is %s, want %s", i, gm[i].FullName(), m.FullName())
		}
		var gs, ws []minij.Expr
		minij.WalkExprs(gm[i].Body, func(e minij.Expr) { gs = append(gs, e) })
		minij.WalkExprs(m.Body, func(e minij.Expr) { ws = append(ws, e) })
		if len(gs) != len(ws) {
			return fmt.Sprintf("%s: %d expressions, want %d", m.FullName(), len(gs), len(ws))
		}
		for j := range ws {
			gc, ok := gs[j].(*minij.Call)
			if !ok {
				continue
			}
			wc := ws[j].(*minij.Call)
			if gc.Kind != wc.Kind {
				return fmt.Sprintf("%s: kind of %s differs", m.FullName(), minij.CanonExpr(wc))
			}
			if gc.RecvType != wc.RecvType {
				return fmt.Sprintf("%s: receiver type of %s is %s, want %s", m.FullName(), minij.CanonExpr(wc), gc.RecvType, wc.RecvType)
			}
		}
	}
	if got.NumStmts() != want.NumStmts() {
		return fmt.Sprintf("%d statements, want %d", got.NumStmts(), want.NumStmts())
	}
	for id := 0; id < want.NumStmts(); id++ {
		s := got.StmtByID(id)
		if s.ID() != id || got.MethodOf(id).FullName() != want.MethodOf(id).FullName() || minij.CanonStmt(s) != minij.CanonStmt(want.StmtByID(id)) {
			return fmt.Sprintf("statement %d differs", id)
		}
	}
	if g, w := edges(ctx.Graph), edges(callgraph.Build(want)); g != w {
		return fmt.Sprintf("call graph differs:\n%s\n---\n%s", g, w)
	}
	return ""
}

// edges renders a call graph's edges in order, without source positions.
func edges(g *callgraph.Graph) string {
	var sb strings.Builder
	for _, m := range g.Prog.Methods() {
		for _, cs := range g.Callees[m] {
			fmt.Fprintf(&sb, "%s -> %s (%s) dynamic=%v\n", cs.Caller.FullName(), cs.Callee.FullName(), minij.CanonExpr(cs.Call), cs.Dynamic)
		}
	}
	return sb.String()
}

// TestConcurrentLinks: eight goroutines link eight distinct suites onto one
// system snapshot and assert over them; each report must equal a
// sequential run of its own suite on a fresh engine. Run under -race.
func TestConcurrentLinks(t *testing.T) {
	cs := corpus.Load().Get("zk-ephemeral")
	newEngine := func() *core.Engine {
		e := core.New()
		e.Snapshots = program.NewCache(0)
		for _, tk := range cs.Tickets {
			if _, err := e.ProcessTicket(tk); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	const n = 8
	suites := make([][]ticket.TestCase, n)
	want := make([]string, n)
	for i := range suites {
		// Each suite drops a different test and adds its own class.
		for j, tc := range cs.Tests {
			if j != i%len(cs.Tests) {
				suites[i] = append(suites[i], tc)
			}
		}
		class := fmt.Sprintf("Extra%d", i)
		suites[i] = append(suites[i], ticket.TestCase{
			Name: class + ".noop", Class: class, Method: "noop",
			Source: "class " + class + " {\n\tstatic void noop() {\n\t}\n}",
		})
		rep, err := newEngine().Assert(cs.Head(), suites[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.Render()
	}
	e := newEngine()
	snap, err := e.LoadSnapshot(cs.Head())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]string, n)
	errs := make([]error, n)
	for i := range suites {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := e.AssertSnapshot(snap, suites[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = rep.Render()
		}(i)
	}
	wg.Wait()
	for i := range suites {
		if errs[i] != nil {
			t.Fatalf("suite %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("suite %d: concurrent report differs from its sequential run:\n%s\n---\n%s", i, got[i], want[i])
		}
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("links changed the shared system program: %v", err)
	}
	if stats := e.Snapshots.Stats(); stats.Links != n {
		t.Errorf("%d links, want %d", stats.Links, n)
	}
}

// TestReopeningSuiteMatchesAnalysisMethods: a suite that reopens a system
// class falls back to the concatenated compile, whose methods are not the
// system snapshot's. Sites are matched over the analysis program, so
// their methods are the call graph's and each site renders the chain
// that reaches it, not "(direct)".
func TestReopeningSuiteMatchesAnalysisMethods(t *testing.T) {
	src := `class Conn { int n; void send(int v) { n = v; } }
class Acct { Conn c; void work(int a) { c.send(a); } }
class Entry { Acct t; void run(int a) { if (a > 0) { t.work(a); } } }`
	sems, err := contract.ParseSpec(`
rule conn-send
description: a send carries a positive value
target: Conn.send
bind: v = arg 0
require: v > 0
`)
	if err != nil {
		t.Fatal(err)
	}
	tests := []ticket.TestCase{{
		Name: "AcctTest.run", Class: "AcctTest", Method: "run",
		Source: "class AcctTest { static void run() { Entry e = new Entry(); e.t = new Acct(); e.t.c = new Conn(); e.run(3); } }\nclass Acct { static void reopened() { } }",
	}}
	e := core.New()
	e.Snapshots = program.NewCache(0)
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := e.Assert(src, tests)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Snapshots.Stats(); st.LinkFallbacks != 1 {
		t.Fatalf("%d link fallbacks, want the reopening suite's one", st.LinkFallbacks)
	}
	got := rep.Render()
	if !strings.Contains(got, "chain Entry.run -> Acct.work\n") || strings.Contains(got, "(direct)") {
		t.Errorf("the site does not render its chain:\n%s", got)
	}
}
