package smt

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateSearch = flag.Bool("update", false, "rewrite testdata/search.golden from the current solver")

// hotPathQueries is the root BenchmarkSolverHotPath's query mix: complement
// checks and prefix conditions over shared integer bounds and string modes.
func hotPathQueries() []Formula {
	checker := MustParsePredicate(`s != null && s.isClosing() == false && s.ttl > 0 && s.retries < 8`)
	comp := Complement(checker)
	queries := make([]Formula, 0, 12)
	for i := 0; i < 6; i++ {
		pc := MustParsePredicate(fmt.Sprintf(
			`s != null && s.isClosing() == false && q.len >= %d && q.len <= %d && x > %d && x < y && y <= z && z <= 40 && mode == "sync"`,
			i, i+20, i))
		queries = append(queries, pc, NewAnd(pc, comp))
	}
	return queries
}

// TestSearchGolden pins the optimized solver's search: for the
// differential tests' formulas (both seeds, with their node ceilings) and
// the hot-path query mix, the verdict, the search-node count and the
// witness model must equal testdata/search.golden. Verdicts alone are
// checked against the reference elsewhere; this catches a change to how
// propositions are identified or ordered that alters the decision order,
// and so the node counts the benchmark's counters compare, or the
// witnesses SolveLim returns.
func TestSearchGolden(t *testing.T) {
	var sb strings.Builder
	line := func(name string, f Formula, lim Limits) {
		qc := NewQueryCache(0)
		lim.Cache = qc
		sat, model, err := SolveLim(f, lim)
		nodes := qc.Stats().Nodes
		switch {
		case errors.Is(err, ErrBudget):
			fmt.Fprintf(&sb, "%s budget nodes=%d\n", name, nodes)
		case err != nil:
			t.Fatalf("%s %s: %v", name, f, err)
		default:
			fmt.Fprintf(&sb, "%s sat=%v nodes=%d model={%s}\n", name, sat, nodes, model)
		}
	}
	r := newTestRng(42)
	for i := 0; i < 2000; i++ {
		line(fmt.Sprintf("diff#%d", i), genDiffFormula(r, 4), Limits{})
	}
	r = newTestRng(7)
	for i := 0; i < 800; i++ {
		line(fmt.Sprintf("budget#%d", i), genDiffFormula(r, 5), Limits{MaxNodes: 40})
	}
	for i, f := range hotPathQueries() {
		line(fmt.Sprintf("hot#%d", i), f, Limits{})
	}
	got := sb.String()
	const path = "testdata/search.golden"
	if *updateSearch {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("search differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("search differs from %s: %d lines, want %d", path, len(gl), len(wl))
}
