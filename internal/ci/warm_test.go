package ci

import (
	"fmt"
	"sync"
	"testing"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/ticket"
)

// TestWarmGateAllocs guards the warm gate: once a change has been gated,
// gating it again on the same engine and scheduler serves every job from
// the fingerprint cache, and the test index, site plans and diff from
// their memos, so it must stay a few hundred allocations — not the
// thousands a gate that re-indexes, re-matches and re-diffs makes.
func TestWarmGateAllocs(t *testing.T) {
	const maxAllocs = 400
	for _, id := range []string{"zk-ephemeral", "zk-session-expiry", "hdfs-lease-recovery"} {
		cs := corpus.Load().Get(id)
		e := core.New()
		for _, tk := range cs.Tickets {
			if _, err := e.ProcessTicket(tk); err != nil {
				t.Fatalf("%s/%s: %v", id, tk.ID, err)
			}
		}
		ch := Change{OldSource: cs.Head(), NewSource: cs.Tickets[len(cs.Tickets)-1].FixedSource}
		opts := GateOptions{Scheduler: sched.New(), Workers: 1, Incremental: true}
		gate := func() {
			res, err := GateWith(e, ch, cs.Tests, opts)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.Report == nil {
				t.Fatalf("%s: the change did not build:\n%s", id, res.Summary())
			}
		}
		gate()
		got := testing.AllocsPerRun(20, gate)
		t.Logf("%s: %.0f allocations per warm gate", id, got)
		if got > maxAllocs {
			t.Errorf("%s: warm gate made %.0f allocations, want at most %d", id, got, maxAllocs)
		}
	}
}

// crossEngineTests is a suite where a rule's description decides which
// test a one-test selection picks.
func crossEngineTests() []ticket.TestCase {
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
			Name:        "QuotaTest.chargeAccumulates",
			Description: "quota accounting for large writes",
			Class:       "QuotaTest",
			Method:      "chargeAccumulates",
			Source: `
class QuotaTest {
	static void chargeAccumulates() {
		int used = 0;
		used = used + 5;
		assertTrue(used == 5, "charged");
	}
}
`,
		},
	}
}

// crossEngineSpec is one rule; the engines differ only in its description.
const crossEngineSpec = `
rule eph-live-session
description: %s
target: DataTree.createEphemeral
bind: s = arg 1
require: s != null && s.closing == false
`

func crossEngine(t *testing.T, description string, snaps *program.Cache) *core.Engine {
	t.Helper()
	sems, err := contract.ParseSpec(fmt.Sprintf(crossEngineSpec, description))
	if err != nil {
		t.Fatal(err)
	}
	e := core.New()
	e.TestTopK = 1
	e.Snapshots = snaps
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestCrossEngineGatesShareSnapshots: two engines share one snapshot
// cache, as the daemon's case runtimes do, and register the same rule
// (same ID, same checker) under different descriptions. Gating the same
// sources concurrently, each must report exactly what its own fresh
// sequential run reports: the memos on the shared snapshots must never
// hand one engine's semantic to the other.
func TestCrossEngineGatesShareSnapshots(t *testing.T) {
	descriptions := []string{
		"An ephemeral node may only be created on a live session.",
		"quota accounting for large writes: a quota charge accumulates, quota used is charged",
	}
	tests := crossEngineTests()
	ch := Change{OldSource: sysFixed, NewSource: sysSafeChange}
	want := make([]string, len(descriptions))
	for i, d := range descriptions {
		rep, err := crossEngine(t, d, program.NewCache(0)).Assert(ch.NewSource, tests)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.Render()
	}
	if want[0] == want[1] {
		t.Fatalf("the descriptions do not change the report; the scenario tests nothing:\n%s", want[0])
	}
	shared := program.NewCache(0)
	var wg sync.WaitGroup
	for i, d := range descriptions {
		e := crossEngine(t, d, shared)
		s := sched.New()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				res, err := GateWith(e, ch, tests, GateOptions{Scheduler: s, Workers: 2, Incremental: true})
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Report.Render(); got != want[i] {
					t.Errorf("engine %d round %d differs from its sequential run:\n--- want ---\n%s\n--- got ---\n%s",
						i, round, want[i], got)
				}
			}
		}()
	}
	wg.Wait()
}
