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

// budgetCase is a run under a budget that leaves a result no unbudgeted
// run may be served: the system, its rule and tests, the budget, and what
// the budgeted run must render.
type budgetCase struct {
	src, spec string
	tests     []ticket.TestCase
	// nodes and steps are the budgeted run's solver-node ceiling and
	// interpreter step budget. starve instead arms an smt.solve Budget
	// fault around it: every solve runs out of budget under the job
	// fingerprints an unbudgeted run computes.
	nodes, steps int
	starve       bool
	// keepsNothing: the budgeted run is starved or degraded, so it keeps
	// no result in either tier.
	keepsNothing bool
	// budgeted returns what is wrong with the budgeted run's render, or "".
	budgeted func(render string) string
}

// checkBudgetNotServed runs c's budgeted assert on a scheduler over a
// store, then an unbudgeted one on the same scheduler or on a fresh one
// over the same store, which must render like a sequential unbudgeted
// run. Each engine has a private solver cache, so no earlier unbudgeted
// solve can answer a budgeted query.
func checkBudgetNotServed(t *testing.T, c budgetCase) {
	t.Helper()
	mk := func(budgeted bool) *core.Engine {
		sems, err := contract.ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		e := core.New()
		e.Solver = smt.NewQueryCache(0)
		if budgeted {
			e.Budget.SolverNodes, e.Budget.StepBudget = c.nodes, c.steps
		}
		for _, sem := range sems {
			if err := e.Registry.Add(sem); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	seq, err := mk(false).Assert(c.src, c.tests)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Render()
	for _, next := range []string{"same scheduler", "fresh scheduler over the store"} {
		t.Run(next, func(t *testing.T) {
			st := openStoreT(t)
			s := New()
			s.Cache().SetStore(st)
			if c.starve {
				faultinject.Arm(faultinject.NewPlan(1).Set("smt.solve", faultinject.Budget))
			}
			budgeted, _, err := s.Assert(mk(true), c.src, c.tests, Options{Workers: 1})
			faultinject.Disarm()
			if err != nil {
				t.Fatal(err)
			}
			if msg := c.budgeted(budgeted.Render()); msg != "" {
				t.Fatalf("%s:\n%s", msg, budgeted.Render())
			}
			// The store drops writes while a fault is armed; the tier
			// counts every record the scheduler hands it.
			if cs := s.Cache().Stats(); c.keepsNothing && (cs.Entries != 0 || cs.DiskWrites != 0) {
				t.Fatalf("the budgeted run kept %d memory entries and %d records, want none", cs.Entries, cs.DiskWrites)
			}
			if next != "same scheduler" {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				s = New()
				s.Cache().SetStore(st)
			}
			rep, stats, err := s.Assert(mk(false), c.src, c.tests, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Render(); got != want {
				t.Errorf("served the budgeted result (%d cache hits):\n--- sequential ---\n%s\n--- got ---\n%s", stats.CacheHits, want, got)
			}
		})
	}
}

// TestBudgetStarvedVerdictNotCached: a solver that runs out of budget on
// every query leaves the site's paths INCONCLUSIVE (prefix pruning keeps
// every subtree besides) and attributes no replayed hit. Neither the
// starved paths nor the replay over them is kept in either tier, so the
// next unbudgeted run renders like a fresh sequential run although its
// fingerprints are the same.
func TestBudgetStarvedVerdictNotCached(t *testing.T) {
	checkBudgetNotServed(t, budgetCase{
		src: `class Acct { int a; void sink(int v, int w) { a = v; } void work(int x, int y, Acct t) { if (x > 0 || y > 0) { if (x > 5 || y > 5) { t.sink(x, y); } } } }`,
		spec: `
rule acct-sink
description: a sink takes a large positive pair
target: Acct.sink
bind: v = arg 0
bind: w = arg 1
require: (v > 0 || w > 0) && (v > 5 || w > 5)
`,
		tests: []ticket.TestCase{{
			Name: "AcctTest.run", Class: "AcctTest", Method: "run",
			Source: `class AcctTest { static void run() { Acct t = new Acct(); t.work(7, 1, t); } }`,
		}},
		starve:       true,
		keepsNothing: true,
		budgeted: func(got string) string {
			if !strings.Contains(got, "path INCONCLUSIVE") {
				return "a starved solver did not starve the path"
			}
			return ""
		},
	})
}

// TestBudgetLengthenedPathsNotServed: prefix pruning keeps a subtree whose
// prefix query a solver-node budget cuts short, so a budget can keep a path
// that an unbudgeted walk prunes and still decide every path it keeps. Here
// the prefix (a > 5 || b > 5) && a < 3 && b < 3 needs three search nodes:
// under a two-node ceiling the site gains a decided cond={s == null}
// VIOLATION. Site fingerprints name the ceiling, so the next unbudgeted
// run renders one violating path, not two.
func TestBudgetLengthenedPathsNotServed(t *testing.T) {
	checkBudgetNotServed(t, budgetCase{
		src: `class Conn { int n; void send(int v) { n = v; } } class Srv { void work(int a, int b, Conn s) { if (a > 5 || b > 5) { if (a < 3 && b < 3) { if (s != null) { return; } } } s.send(a); } }`,
		spec: `
rule conn-send
description: a send goes to an open connection
target: Conn.send
bind: c = receiver
require: c != null
`,
		nodes: 2,
		budgeted: func(got string) string {
			if strings.Count(got, "path VIOLATION") != 2 || strings.Contains(got, "INCONCLUSIVE") {
				return "a two-node budget did not keep a decided extra path"
			}
			return ""
		},
	})
}

// TestBudgetCutConfirmationNotCached: a test that runs out of interpreter
// steps before it reaches the hazard cannot confirm a structural finding,
// so the structural job degrades, as a replay job does, instead of
// reporting the finding unconfirmed. It is kept in neither tier, so the
// next unbudgeted run renders the confirmation.
func TestBudgetCutConfirmationNotCached(t *testing.T) {
	checkBudgetNotServed(t, budgetCase{
		src: `class Log { list q; void put(string k) { synchronized (q) { ioWrite("log", k); } } }`,
		spec: `
rule log-io
description: Never block on I/O while holding a lock.
structural: no-blocking-io-in-sync
`,
		tests: []ticket.TestCase{{
			Name: "LogTest.run", Class: "LogTest", Method: "run",
			Source: `class LogTest { static void run() { int i = 0; while (i < 100) { i = i + 1; } Log l = new Log(); l.q = newList(); l.put("a"); } }`,
		}},
		steps:        50,
		keepsNothing: true,
		budgeted: func(got string) string {
			if !strings.Contains(got, "LogTest.run") || !strings.Contains(got, "budget") {
				return "a 50-step budget did not degrade the structural job"
			}
			return ""
		},
	})
}
