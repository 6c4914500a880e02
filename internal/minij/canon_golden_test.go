package minij

import (
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"

	"lisa/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite testdata/canon.golden from the current printer")

// canonNodes lists every statement and every expression node (nested ones
// included) of every distinct corpus source — each case's versions and
// each test's source — in walk order.
func canonNodes(t testing.TB) (stmts []Stmt, exprs []Expr) {
	t.Helper()
	seen := map[string]bool{}
	for _, cs := range corpus.Load().Cases {
		srcs := []string{cs.Head(), cs.Latest}
		for _, tk := range cs.Tickets {
			srcs = append(srcs, tk.BuggySource, tk.FixedSource)
		}
		for _, tc := range cs.Tests {
			srcs = append(srcs, tc.Source)
		}
		for _, src := range srcs {
			if src == "" || seen[src] {
				continue
			}
			seen[src] = true
			prog, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range prog.Methods() {
				WalkStmts(m.Body, func(s Stmt) { stmts = append(stmts, s) })
				WalkExprs(m.Body, func(e Expr) { exprs = append(exprs, e) })
			}
		}
	}
	return stmts, exprs
}

// TestCanonGolden pins the standalone statement-head and expression
// renders that site strings, guard texts and target patterns are built
// from: CanonStmt of every corpus statement and CanonExpr of every corpus
// expression must equal testdata/canon.golden.
func TestCanonGolden(t *testing.T) {
	stmts, exprs := canonNodes(t)
	var sb strings.Builder
	for _, s := range stmts {
		sb.WriteString("s ")
		sb.WriteString(CanonStmt(s))
		sb.WriteByte('\n')
	}
	for _, e := range exprs {
		sb.WriteString("e ")
		sb.WriteString(CanonExpr(e))
		sb.WriteByte('\n')
	}
	const golden = "testdata/canon.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want, got := strings.Split(string(raw), "\n"), strings.Split(sb.String(), "\n")
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}

// canonSink keeps each render alive, as a cached site string or guard text
// is: a render nothing keeps could be built in a stack buffer.
var canonSink string

// renderCanonNodes renders each node standalone, as site strings and guard
// texts do.
func renderCanonNodes(stmts []Stmt, exprs []Expr) {
	for _, s := range stmts {
		canonSink = CanonStmt(s)
	}
	for _, e := range exprs {
		canonSink = CanonExpr(e)
	}
}

// BenchmarkCanonNodes renders every corpus statement head and expression
// standalone; one op is one pass over the set.
func BenchmarkCanonNodes(b *testing.B) {
	stmts, exprs := canonNodes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		renderCanonNodes(stmts, exprs)
	}
}

// TestCanonAllocs: a standalone render allocates no more objects and no
// more bytes than the printer did before statement heads and expressions
// were written straight into a byte buffer (a cached site string keeps
// every byte its render allocated). The bounds are one pass over the
// corpus set as that printer rendered it: the most of three measurements,
// which varied by a few bytes.
func TestCanonAllocs(t *testing.T) {
	const maxObjects, maxBytes = 37160, 807798
	stmts, exprs := canonNodes(t)
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		renderCanonNodes(stmts, exprs)
	}
	runtime.ReadMemStats(&after)
	objects := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d statements, %d expressions: %d objects, %d bytes per pass", len(stmts), len(exprs), objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("a pass allocates %d objects and %d bytes, want at most %d and %d", objects, bytes, maxObjects, maxBytes)
	}
}
