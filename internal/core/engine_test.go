package core

import (
	"strings"
	"testing"

	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/corpus"
	"lisa/internal/infer"
	"lisa/internal/program"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

const zkBuggy = `
class Session {
	bool closing;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session owner) {
		nodes.put(path, owner);
	}
}

class PrepProcessor {
	DataTree tree;

	void processCreate(string path, Session s) {
		if (s == null) {
			throw "KeeperException";
		}
		tree.createEphemeral(path, s);
	}
}
`

const zkFixed = `
class Session {
	bool closing;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session owner) {
		nodes.put(path, owner);
	}
}

class PrepProcessor {
	DataTree tree;

	void processCreate(string path, Session s) {
		if (s == null || s.closing) {
			throw "KeeperException";
		}
		tree.createEphemeral(path, s);
	}
}
`

// zkRegressed adds a second request path one year later that misses the
// closing check — the ZK-1496 recurrence.
const zkRegressed = zkFixed + `
class SessionTracker {
	DataTree tree;

	void touchAndRegister(string path, Session s) {
		if (s == null) {
			return;
		}
		tree.createEphemeral(path, s);
	}
}
`

func zkTestSuite() []ticket.TestCase {
	return []ticket.TestCase{
		{
			Name:        "EphemeralTest.createOnLiveSession",
			Description: "create ephemeral node on a live session succeeds",
			Class:       "EphemeralTest",
			Method:      "createOnLiveSession",
			Source: `
class EphemeralTest {
	static void createOnLiveSession() {
		PrepProcessor p = new PrepProcessor();
		p.tree = new DataTree();
		p.tree.nodes = newMap();
		Session s = new Session();
		s.closing = false;
		p.processCreate("/live", s);
		assertTrue(p.tree.nodes.has("/live"), "node created");
	}
}
`,
		},
		{
			Name:        "TrackerTest.touchRegistersAddress",
			Description: "session tracker registers consumer address via ephemeral node",
			Class:       "TrackerTest",
			Method:      "touchRegistersAddress",
			Source: `
class TrackerTest {
	static void touchRegistersAddress() {
		SessionTracker tr = new SessionTracker();
		tr.tree = new DataTree();
		tr.tree.nodes = newMap();
		Session s = new Session();
		s.closing = true;
		tr.touchAndRegister("/consumer", s);
	}
}
`,
		},
		{
			Name:        "QuotaTest.unrelatedQuota",
			Description: "quota accounting for large writes",
			Class:       "QuotaTest",
			Method:      "unrelatedQuota",
			Source: `
class QuotaTest {
	static void unrelatedQuota() {
		assertTrue(1 + 1 == 2, "math");
	}
}
`,
		},
	}
}

func zkTicket() *ticket.Ticket {
	return &ticket.Ticket{
		ID:          "ZK-1208",
		Title:       "Ephemeral node not removed after the client session is long gone",
		Description: "Ephemeral node created on a closing session persists after the session dies.",
		BuggySource: zkBuggy,
		FixedSource: zkFixed,
	}
}

func TestProcessTicketRegistersRule(t *testing.T) {
	e := New()
	rep, err := e.ProcessTicket(zkTicket())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Registered) != 1 {
		t.Fatalf("registered = %v", rep.Registered)
	}
	if e.Registry.Len() != 1 {
		t.Errorf("registry len = %d", e.Registry.Len())
	}
	if rep.Registered[0].Target.Callee != "DataTree.createEphemeral" {
		t.Errorf("callee = %q", rep.Registered[0].Target.Callee)
	}
}

// TestNewNamesProcessWideCaches: New's engine loads and solves through the
// process-wide snapshot and solver caches, and an engine whose Solver is
// nil asserts with no solver cache at all.
func TestNewNamesProcessWideCaches(t *testing.T) {
	e := New()
	if e.Snapshots != program.DefaultCache() {
		t.Error("New's Snapshots is not program.DefaultCache()")
	}
	if e.Solver != smt.DefaultQueryCache() {
		t.Error("New's Solver is not smt.DefaultQueryCache()")
	}
	if _, err := e.ProcessTicket(zkTicket()); err != nil {
		t.Fatal(err)
	}
	e.Snapshots, e.Solver = program.NewCache(0), nil
	shared, before := smt.DefaultQueryCache().Stats(), smt.Stats()
	rep, err := e.Assert(zkFixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts.Verified == 0 {
		t.Fatalf("no verified path: %+v", rep.Counts)
	}
	if after := smt.DefaultQueryCache().Stats(); after != shared {
		t.Errorf("a nil Solver moved the process-wide cache: %+v -> %+v", shared, after)
	}
	if smt.Stats().Solves == before.Solves {
		t.Error("a nil Solver ran no solve")
	}
}

func TestAssertFixedVersionPasses(t *testing.T) {
	e := New()
	if _, err := e.ProcessTicket(zkTicket()); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Assert(zkFixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts.Violations != 0 {
		t.Errorf("violations on fixed version: %v", rep.Violations())
	}
	if rep.Counts.Verified == 0 {
		t.Error("no verified paths on fixed version")
	}
	if !rep.Semantics[0].SanityOK {
		t.Error("sanity check failed on fixed version")
	}
}

func TestAssertCatchesRegression(t *testing.T) {
	e := New()
	if _, err := e.ProcessTicket(zkTicket()); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Assert(zkRegressed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts.Violations != 1 {
		t.Fatalf("violations = %d, want 1: %v", rep.Counts.Violations, rep.Violations())
	}
	v := rep.Violations()[0]
	if !strings.Contains(v, "SessionTracker.touchAndRegister") {
		t.Errorf("violation = %q, want the new unguarded path", v)
	}
	// The original fixed path still verifies (sanity).
	if !rep.Semantics[0].SanityOK {
		t.Error("sanity check failed")
	}
}

func TestAssertDynamicCoverage(t *testing.T) {
	e := New()
	if _, err := e.ProcessTicket(zkTicket()); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Assert(zkRegressed, zkTestSuite())
	if err != nil {
		t.Fatal(err)
	}
	var covered, uncovered int
	var violatingCovered bool
	for _, sr := range rep.Semantics {
		for _, site := range sr.Sites {
			if len(site.SelectedTests) == 0 {
				t.Errorf("site %s: no tests selected", site.Site)
			}
			for _, tn := range site.SelectedTests {
				if tn == "QuotaTest.unrelatedQuota" {
					t.Errorf("site %s selected the unrelated quota test", site.Site)
				}
			}
			for _, p := range site.Paths {
				if p.Covered() {
					covered++
					if p.Verdict == concolic.VerdictViolation {
						violatingCovered = true
						for _, dv := range p.DynamicVerdicts {
							if dv != concolic.VerdictViolation {
								t.Errorf("dynamic verdict %v disagrees with static violation", dv)
							}
						}
					}
				} else {
					uncovered++
				}
			}
		}
	}
	if covered < 2 {
		t.Errorf("covered paths = %d, want >= 2", covered)
	}
	if !violatingCovered {
		t.Error("the violating path was not dynamically covered by the tracker test")
	}
	if rep.TestsRun == 0 {
		t.Error("no tests ran")
	}
}

func TestAssertChainsUseSystemEntries(t *testing.T) {
	e := New()
	if _, err := e.ProcessTicket(zkTicket()); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Assert(zkRegressed, zkTestSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range rep.Semantics {
		for _, site := range sr.Sites {
			for _, ch := range site.Chains {
				entry := ch.Entry(site.Site.Method)
				if strings.HasSuffix(entry.Class.Name, "Test") {
					t.Errorf("chain entry %s is a test method", entry.FullName())
				}
			}
		}
	}
}

func TestStageTimingsPopulated(t *testing.T) {
	e := New()
	if _, err := e.ProcessTicket(zkTicket()); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Assert(zkRegressed, zkTestSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"compile", "callgraph", "match", "static-paths", "test-select", "concolic"} {
		if _, ok := rep.StageTimings[want]; !ok {
			t.Errorf("stage %q missing from timings: %v", want, rep.SortedStageNames())
		}
	}
}

func TestRunAllTestsAblation(t *testing.T) {
	e := New()
	if _, err := e.ProcessTicket(zkTicket()); err != nil {
		t.Fatal(err)
	}
	e.RunAllTests = true
	rep, err := e.Assert(zkRegressed, zkTestSuite())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sr := range rep.Semantics {
		for _, site := range sr.Sites {
			for _, tn := range site.SelectedTests {
				if tn == "QuotaTest.unrelatedQuota" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("RunAllTests should include the unrelated test")
	}
}

func TestAssertBadSource(t *testing.T) {
	e := New()
	if _, err := e.Assert("class {", nil); err == nil {
		t.Error("expected compile error")
	}
}

// TestProcessTicketRejectsCorruptedRules: with a fully corrupting
// inferencer, cross-checking rejects everything and reports why.
func TestProcessTicketRejectsCorruptedRules(t *testing.T) {
	e := New()
	e.Inferencer = &infer.StochasticInferencer{
		Base: &infer.PatchAnalyzer{}, Seed: 11, MutateRate: 1.0,
	}
	rep, err := e.ProcessTicket(zkTicket())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Registered) != 0 {
		t.Errorf("corrupted rules registered: %v", rep.Registered)
	}
	if len(rep.Rejected) == 0 {
		t.Fatal("no rejection recorded")
	}
	if rep.Rejected[0].Grounded {
		t.Error("rejected entry marked grounded")
	}
	if rep.Rejected[0].Reason == "" {
		t.Error("rejection without reason")
	}
	if e.Registry.Len() != 0 {
		t.Errorf("registry = %d, want empty", e.Registry.Len())
	}
}

// TestEquivalentRuleMergesOrigins: re-deriving a known rule from a later
// ticket records provenance on the existing contract.
func TestEquivalentRuleMergesOrigins(t *testing.T) {
	cs := corpus.Load().Get("hbase-snapshot-ttl")
	e := New()
	first, err := e.ProcessTicket(cs.Tickets[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Registered) != 1 {
		t.Fatalf("registered = %v", first.Registered)
	}
	second, err := e.ProcessTicket(cs.Tickets[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Registered) != 0 || len(second.AlreadyKnown) != 1 {
		t.Fatalf("second ticket: registered=%v known=%v", second.Registered, second.AlreadyKnown)
	}
	origins := second.AlreadyKnown[0].Origin
	if len(origins) < 2 {
		t.Errorf("origins = %v, want both tickets", origins)
	}
}

// TestKnownConstantOperandBindsItsPath: a slot operand whose value the
// frame knows is still bound to its path, so the constant reaches the
// site's condition as a fact. In replay, a test that passes a constant
// (literally, through a local or through a field) binds the slot as the
// static path does, so the hit is attributed and the path is covered. In
// enumeration, a local the method sets decides the path.
func TestKnownConstantOperandBindsItsPath(t *testing.T) {
	engine := func(t *testing.T, spec string) *Engine {
		t.Helper()
		sems, err := contract.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		e.Snapshots = program.NewCache(0)
		for _, sem := range sems {
			if err := e.Registry.Add(sem); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	const acct = `class Acct { int a; void sink(int v, int w) { a = v; } void work(int x, int y, Acct t) { if (x > 0 || y > 0) { if (x > 5 || y > 5) { t.sink(x, y); } } } }`
	const pairSpec = `
rule acct-sink
description: a sink takes a large positive pair
target: Acct.sink
bind: v = arg 0
bind: w = arg 1
require: (v > 0 || w > 0) && (v > 5 || w > 5)
`
	for name, body := range map[string]string{
		"literal": `t.work(7, 1, t);`,
		"local":   `int p = 7; t.work(p, 1, t);`,
		"field":   `t.a = 7; t.work(t.a, 1, t);`,
	} {
		t.Run("replay/"+name, func(t *testing.T) {
			tests := []ticket.TestCase{{
				Name: "AcctTest.run", Class: "AcctTest", Method: "run",
				Source: `class AcctTest { static void run() { Acct t = new Acct(); ` + body + ` } }`,
			}}
			rep, err := engine(t, pairSpec).Assert(acct, tests)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Render()
			if !strings.Contains(got, "covered-by AcctTest.run") || rep.Counts.Uncovered != 0 {
				t.Errorf("the replayed hit is not attributed to its path:\n%s", got)
			}
		})
	}
	for value, want := range map[string]string{
		"2": "path VIOLATION cond={x == 2}",
		"7": "path VERIFIED  cond={x == 7}",
	} {
		t.Run("static/x="+value, func(t *testing.T) {
			src := `class Acct { void sink(int v) { } void run(Acct t) { int x = ` + value + `; t.sink(x); } }`
			rep, err := engine(t, `
rule acct-large
description: a sink takes a large value
target: Acct.sink
bind: v = arg 0
require: v > 5
`).Assert(src, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Render(); !strings.Contains(got, want) {
				t.Errorf("want %q:\n%s", want, got)
			}
		})
	}
}
