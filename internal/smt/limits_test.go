package smt

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// hardFormula builds a query whose DPLL search must enumerate every
// assignment of n free tautological clauses before the trailing
// contradiction (over atoms assigned last) can surface — >2^n nodes,
// enough to trip small node ceilings and the periodic context poll. Two
// details defeat the optimized solver's shortcuts on purpose: the
// contradiction is spread across four two-literal Or clauses so unit
// propagation cannot see it, and each tautological clause is repeated so
// its atom outranks the tail atoms under the most-constrained-first
// ordering and is decided first.
func hardFormula(t *testing.T, n int) Formula {
	t.Helper()
	src := ""
	for i := 0; i < n; i++ {
		cl := fmt.Sprintf("(x%d > 0 || x%d <= 0)", i, i)
		src += cl + " && " + cl + " && " + cl + " && "
	}
	src += "(y > 0 || z > 0) && (y > 0 || z <= 0) && (y <= 0 || z > 0) && (y <= 0 || z <= 0)"
	f, err := ParsePredicate(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSolveLimNodeBudget: a node ceiling below the search size surfaces
// ErrBudget instead of a made-up verdict.
func TestSolveLimNodeBudget(t *testing.T) {
	f := hardFormula(t, 6)
	_, _, err := SolveLim(f, Limits{MaxNodes: 100})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("SolveLim with MaxNodes=100: err = %v, want ErrBudget", err)
	}
	// The same query under default limits decides cleanly (UNSAT).
	sat, err := SATLim(f, Limits{})
	if err != nil {
		t.Fatalf("SATLim under default limits: %v", err)
	}
	if sat {
		t.Fatal("hard formula is UNSAT but SATLim said SAT")
	}
}

// TestSolveLimContextCancelled: a cancelled context aborts the search via
// the cooperative poll and surfaces the context's error.
func TestSolveLimContextCancelled(t *testing.T) {
	// No result cache: this exercises the search's cooperative poll, and
	// a warm cache would answer before the search ever runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SATLim(hardFormula(t, 6), Limits{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SATLim under cancelled ctx: err = %v, want context.Canceled", err)
	}
}
