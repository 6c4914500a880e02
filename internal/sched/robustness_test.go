package sched

import (
	"strings"
	"testing"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/faultinject"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// sysLedger extends the shared fixture with a second guarded subsystem, so
// the engine can hold two independent semantics over one program.
const sysLedger = sysFixed + `
class Account {
	bool sealed;
}

class Ledger {
	map entries;

	void append(string key, Account a) {
		entries.put(key, a);
	}
}

class Auditor {
	Ledger book;

	void record(string key, Account a) {
		if (a == null || a.sealed) {
			throw "AuditException";
		}
		book.append(key, a);
	}
}
`

// engineWithTwoRules registers two semantics with distinct targets: the
// ZK-1208 ephemeral guard and a mirrored ledger guard.
func engineWithTwoRules(t *testing.T) *core.Engine {
	t.Helper()
	e := core.New()
	tickets := []*ticket.Ticket{
		{
			ID:          "ZK-1208",
			Title:       "Ephemeral node on closing session",
			BuggySource: strings.Replace(sysLedger, " || s.closing", "", 1),
			FixedSource: sysLedger,
		},
		{
			ID:          "LG-77",
			Title:       "Ledger entry on sealed account",
			BuggySource: strings.Replace(sysLedger, " || a.sealed", "", 1),
			FixedSource: sysLedger,
		},
	}
	for _, tk := range tickets {
		if _, err := e.ProcessTicket(tk); err != nil {
			t.Fatalf("%s: %v", tk.ID, err)
		}
	}
	if e.Registry.Len() != 2 {
		t.Fatalf("registered %d semantics, want 2", e.Registry.Len())
	}
	return e
}

// findSemantic returns the registered semantic whose target mentions the
// given callee substring.
func findSemantic(t *testing.T, e *core.Engine, callee string) *contract.Semantic {
	t.Helper()
	for _, sem := range e.Registry.All() {
		if strings.Contains(sem.Target.Callee, callee) {
			return sem
		}
	}
	t.Fatalf("no semantic targeting %q", callee)
	return nil
}

// renderSemantic renders one semantic's report in isolation so healthy
// semantics can be compared between a clean run and a faulted run.
func renderSemantic(sr *core.SemanticReport, staticOnly bool) string {
	r := &core.AssertReport{StaticOnly: staticOnly}
	r.Absorb(sr)
	return r.Render()
}

// TestWorkerPanicIsolation: a panic injected into one semantic's site job is
// contained to that job — the worker pool survives, the victim semantic
// reports a structured panic failure and turns INCONCLUSIVE, and the other
// semantic's result is byte-identical to a clean run at every worker count.
func TestWorkerPanicIsolation(t *testing.T) {
	e := engineWithTwoRules(t)
	victim := findSemantic(t, e, "Ledger.append")
	healthy := findSemantic(t, e, "DataTree.createEphemeral")

	clean, _, err := New().Assert(e, sysLedger, testSuite(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	cleanHealthy := renderSemantic(clean.Semantic(healthy.ID), clean.StaticOnly)

	faultinject.Arm(faultinject.NewPlan(1).
		Set("job:"+core.JobNameSite(victim.ID, 0), faultinject.Panic))
	defer faultinject.Disarm()

	var renders []string
	for _, workers := range []int{1, 8} {
		rep, stats, err := New().Assert(e, sysLedger, testSuite(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: injected panic escaped the pool: %v", workers, err)
		}
		sr := rep.Semantic(victim.ID)
		if sr == nil {
			t.Fatalf("workers=%d: victim semantic missing from report", workers)
		}
		if len(sr.Failures) != 1 {
			t.Fatalf("workers=%d: victim has %d failures, want 1", workers, len(sr.Failures))
		}
		f := sr.Failures[0]
		if f.Reason != core.FailPanic {
			t.Errorf("workers=%d: failure reason = %q, want %q", workers, f.Reason, core.FailPanic)
		}
		if f.Stack == "" {
			t.Errorf("workers=%d: panic failure carries no stack trace", workers)
		}
		if got := sr.Outcome(); got != core.OutcomeInconclusive {
			t.Errorf("workers=%d: victim outcome = %s, want %s", workers, got, core.OutcomeInconclusive)
		}
		if stats.Failures == 0 {
			t.Errorf("workers=%d: stats.Failures = 0, want >0", workers)
		}
		hs := rep.Semantic(healthy.ID)
		if got := hs.Outcome(); got != core.OutcomePass {
			t.Errorf("workers=%d: healthy outcome = %s, want %s", workers, got, core.OutcomePass)
		}
		if got := renderSemantic(hs, rep.StaticOnly); got != cleanHealthy {
			t.Errorf("workers=%d: healthy semantic drifted under fault\n--- clean ---\n%s\n--- faulted ---\n%s",
				workers, cleanHealthy, got)
		}
		renders = append(renders, rep.Render())
	}
	if renders[0] != renders[1] {
		t.Errorf("faulted reports differ between workers=1 and workers=8\n--- w1 ---\n%s\n--- w8 ---\n%s",
			renders[0], renders[1])
	}

	// Disarmed, a fresh scheduler recovers completely: no residue.
	faultinject.Disarm()
	after, _, err := New().Assert(e, sysLedger, testSuite(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Semantic(victim.ID).Outcome(); got != core.OutcomePass {
		t.Errorf("after disarm: victim outcome = %s, want %s", got, core.OutcomePass)
	}
}

// TestBudgetStarvedVerdictNotCached: a solver-node budget too small to
// decide a path leaves it INCONCLUSIVE, under a site fingerprint that does
// not name the budget. That result is cached in neither tier, so the next
// unbudgeted run, on the same scheduler or on a fresh one over the same
// store, renders like a fresh sequential run.
func TestBudgetStarvedVerdictNotCached(t *testing.T) {
	const src = `class Acct { int a; void sink(int v, int w) { a = v; } void work(int x, int y, Acct t) { if (x > 0 || y > 0) { if (x > 5 || y > 5) { t.sink(x, y); } } } }`
	// mk gives each engine a private solver cache, so no earlier
	// unbudgeted solve can answer the starved query.
	mk := func(solverNodes int) *core.Engine {
		sems, err := contract.ParseSpec(`
rule acct-sink
description: a sink takes a large positive pair
target: Acct.sink
bind: v = arg 0
bind: w = arg 1
require: (v > 0 || w > 0) && (v > 5 || w > 5)
`)
		if err != nil {
			t.Fatal(err)
		}
		e := core.New()
		e.Solver = smt.NewQueryCache(0)
		e.Budget.SolverNodes = solverNodes
		for _, sem := range sems {
			if err := e.Registry.Add(sem); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	seq, err := mk(0).Assert(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Render()
	if !strings.Contains(want, "path VERIFIED") {
		t.Fatalf("the unbudgeted run does not verify the path:\n%s", want)
	}
	for _, next := range []string{"same scheduler", "fresh scheduler over the store"} {
		t.Run(next, func(t *testing.T) {
			st := openStoreT(t)
			s := New()
			s.Cache().SetStore(st)
			starved, _, err := s.Assert(mk(1), src, nil, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(starved.Render(), "path INCONCLUSIVE") {
				t.Fatalf("a one-node budget did not starve the path:\n%s", starved.Render())
			}
			if next != "same scheduler" {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				s = New()
				s.Cache().SetStore(st)
			}
			rep, stats, err := s.Assert(mk(0), src, nil, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Render(); got != want {
				t.Errorf("served the starved verdict (%d cache hits):\n--- sequential ---\n%s\n--- got ---\n%s", stats.CacheHits, want, got)
			}
		})
	}
}
