package callgraph

import (
	"fmt"
	"strings"
	"testing"

	"lisa/internal/corpus"
	"lisa/internal/minij"
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

const pipelineSrc = `
class DataTree {
	map nodes;

	void createNode(string path, Session s) {
		nodes.put(path, s);
	}
}

class Session {
	bool closing;
}

class PrepProcessor {
	DataTree tree;

	void processCreate(string path, Session s) {
		if (s == null) {
			throw "KeeperException";
		}
		tree.createNode(path, s);
	}
}

class FollowerProcessor {
	DataTree tree;

	void forwardCreate(string path, Session s) {
		tree.createNode(path, s);
	}
}

class Server {
	PrepProcessor prep;
	FollowerProcessor follower;

	void handleClient(string path, Session s) {
		prep.processCreate(path, s);
	}

	void handleFollower(string path, Session s) {
		follower.forwardCreate(path, s);
	}
}
`

func TestBuildEdges(t *testing.T) {
	prog := compile(t, pipelineSrc)
	g := Build(prog)
	create := prog.Method("DataTree", "createNode")
	callers := g.Callers[create]
	if len(callers) != 2 {
		t.Fatalf("createNode callers = %d, want 2", len(callers))
	}
	names := map[string]bool{}
	for _, cs := range callers {
		names[cs.Caller.FullName()] = true
		if cs.Dynamic {
			t.Errorf("edge %v should be static", cs)
		}
	}
	if !names["PrepProcessor.processCreate"] || !names["FollowerProcessor.forwardCreate"] {
		t.Errorf("callers = %v", names)
	}
}

func TestRoots(t *testing.T) {
	prog := compile(t, pipelineSrc)
	g := Build(prog)
	var names []string
	for _, m := range g.Roots() {
		names = append(names, m.FullName())
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "Server.handleClient") || !strings.Contains(joined, "Server.handleFollower") {
		t.Errorf("roots = %v", names)
	}
	if strings.Contains(joined, "DataTree.createNode") {
		t.Errorf("createNode should not be a root: %v", names)
	}
}

func TestExecutionTree(t *testing.T) {
	prog := compile(t, pipelineSrc)
	g := Build(prog)
	target := prog.Method("DataTree", "createNode")
	tree := g.ExecutionTree(target, TreeOptions{})
	if tree.Truncated {
		t.Error("tree unexpectedly truncated")
	}
	if len(tree.Paths) != 2 {
		t.Fatalf("paths = %d, want 2:\n%v", len(tree.Paths), tree.Paths)
	}
	var rendered []string
	for _, p := range tree.Paths {
		rendered = append(rendered, p.String())
		if p.Entry(target).Class.Name != "Server" {
			t.Errorf("path entry = %s, want Server.*", p.Entry(target).FullName())
		}
	}
	wantA := "Server.handleClient -> PrepProcessor.processCreate -> DataTree.createNode"
	wantB := "Server.handleFollower -> FollowerProcessor.forwardCreate -> DataTree.createNode"
	got := strings.Join(rendered, "\n")
	if !strings.Contains(got, wantA) || !strings.Contains(got, wantB) {
		t.Errorf("paths:\n%s", got)
	}
}

func TestExecutionTreeDirectEntry(t *testing.T) {
	src := `
class API {
	static void doThing() {
		log("x");
	}
}
`
	prog := compile(t, src)
	g := Build(prog)
	target := prog.Method("API", "doThing")
	tree := g.ExecutionTree(target, TreeOptions{})
	if len(tree.Paths) != 1 || len(tree.Paths[0]) != 0 {
		t.Errorf("direct-entry tree = %v", tree.Paths)
	}
	if MethodsOnPath(tree.Paths[0], target)[0] != target {
		t.Error("MethodsOnPath on empty path should yield the target")
	}
}

func TestExecutionTreeCycles(t *testing.T) {
	src := `
class R {
	void a(int n) {
		if (n > 0) {
			b(n - 1);
		}
		leaf();
	}

	void b(int n) {
		a(n);
	}

	void leaf() {
		log("leaf");
	}
}

class Main {
	R r;

	void run() {
		r.a(3);
	}
}
`
	prog := compile(t, src)
	g := Build(prog)
	target := prog.Method("R", "leaf")
	tree := g.ExecutionTree(target, TreeOptions{})
	if tree.Truncated {
		t.Error("cycle should not truncate, just stop")
	}
	// Acyclic chains to leaf: run->a->leaf and run->a->b->a is cyclic (a
	// repeats), so only one path.
	if len(tree.Paths) != 1 {
		t.Errorf("paths = %v", tree.Paths)
	}
}

func TestDynamicDispatchEdges(t *testing.T) {
	src := `
class Worker {
	int run(int x) {
		return x + 1;
	}
}

class Other {
	int run(int x) {
		return x * 2;
	}
}

class Pool {
	list workers;

	int dispatch(int x) {
		int total = 0;
		for (w in workers) {
			total = total + w.run(x);
		}
		return total;
	}
}
`
	prog := compile(t, src)
	g := Build(prog)
	pool := prog.Method("Pool", "dispatch")
	edges := g.Callees[pool]
	var dynamic int
	for _, e := range edges {
		if e.Dynamic {
			dynamic++
		}
	}
	if dynamic != 2 {
		t.Errorf("dynamic edges = %d, want 2 (Worker.run, Other.run)", dynamic)
	}
}

func TestReachable(t *testing.T) {
	prog := compile(t, pipelineSrc)
	g := Build(prog)
	entry := prog.Method("Server", "handleClient")
	seen := g.Reachable([]*minij.Method{entry})
	if !seen[prog.Method("DataTree", "createNode")] {
		t.Error("createNode should be reachable from handleClient")
	}
	if seen[prog.Method("FollowerProcessor", "forwardCreate")] {
		t.Error("forwardCreate should not be reachable from handleClient")
	}
}

func TestCustomEntries(t *testing.T) {
	prog := compile(t, pipelineSrc)
	g := Build(prog)
	target := prog.Method("DataTree", "createNode")
	tree := g.ExecutionTree(target, TreeOptions{
		IsEntry: func(m *minij.Method) bool { return m.Class.Name == "PrepProcessor" },
	})
	if len(tree.Paths) != 1 {
		t.Fatalf("paths = %v", tree.Paths)
	}
	if got := tree.Paths[0].String(); !strings.HasPrefix(got, "PrepProcessor.processCreate") {
		t.Errorf("path = %s", got)
	}
}

func TestMaxPathsTruncation(t *testing.T) {
	// Diamond fan-in: each layer doubles the path count.
	src := `
class D {
	void sink() {
		log("s");
	}
	void a1() { sink(); }
	void a2() { sink(); }
	void b1() { a1(); a2(); }
	void b2() { a1(); a2(); }
	void c1() { b1(); b2(); }
	void c2() { b1(); b2(); }
	void top() { c1(); c2(); }
}
`
	prog := compile(t, src)
	g := Build(prog)
	target := prog.Method("D", "sink")
	tree := g.ExecutionTree(target, TreeOptions{MaxPaths: 3})
	if !tree.Truncated {
		t.Error("expected truncation")
	}
	if len(tree.Paths) > 3 {
		t.Errorf("paths = %d, want <= 3", len(tree.Paths))
	}
	full := g.ExecutionTree(target, TreeOptions{})
	if full.Truncated || len(full.Paths) != 8 {
		t.Errorf("full tree = %d paths (truncated=%v), want 8", len(full.Paths), full.Truncated)
	}
}

// edgeLines renders every edge of g in Build order, keyed both ways: each
// caller's call sites (callers in program order), then each callee's
// incoming edges (the order ExecutionTree walks them in).
func edgeLines(g *Graph) []string {
	var lines []string
	for _, by := range []map[*minij.Method][]CallSite{g.Callees, g.Callers} {
		for _, m := range g.Prog.Methods() {
			for _, e := range by[m] {
				lines = append(lines, fmt.Sprintf("%s dynamic=%v", e, e.Dynamic))
			}
		}
	}
	return lines
}

// TestBuildOnDecodedProgram: a snapshot restored from the store builds its
// call graph on the program minij.DecodeProgram rebuilt from the binary
// AST, not on a parsed one. For every distinct corpus version that parses
// and checks — each case's head and ticket versions, alone and with the
// case's tests appended — Build on the decoded program must give the same
// edges as Build on the parsed one: caller, callee, call position and
// Dynamic flag, in the same order.
func TestBuildOnDecodedProgram(t *testing.T) {
	seen := map[string]bool{}
	var programs, edges int
	for _, cs := range corpus.Load().Cases {
		versions := []string{cs.Head()}
		for _, tk := range cs.Tickets {
			versions = append(versions, tk.BuggySource, tk.FixedSource)
		}
		for _, v := range versions {
			withTests := v
			for _, tc := range cs.Tests {
				withTests += "\n" + tc.Source
			}
			for _, src := range []string{v, withTests} {
				if seen[src] {
					continue
				}
				seen[src] = true
				prog, err := minij.Parse(src)
				if err != nil || minij.Check(prog) != nil {
					continue
				}
				enc, err := minij.EncodeProgram(prog)
				if err != nil {
					t.Fatalf("%s: encode: %v", cs.ID, err)
				}
				dec, err := minij.DecodeProgram(enc)
				if err != nil {
					t.Fatalf("%s: decode: %v", cs.ID, err)
				}
				want, got := edgeLines(Build(prog)), edgeLines(Build(dec))
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s: graph of the decoded program differs:\n got %q\nwant %q", cs.ID, got, want)
				}
				programs++
				edges += len(want) / 2
			}
		}
	}
	if programs == 0 || edges == 0 {
		t.Fatalf("compared %d programs with %d edges, want some of each", programs, edges)
	}
	t.Logf("%d programs, %d edges", programs, edges)
}
