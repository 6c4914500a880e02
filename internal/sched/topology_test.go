package sched

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/store"
	"lisa/internal/ticket"
)

// topoWorkload builds an n-replica system — one contract per replica, two
// guarded call sites each behind branching caller chains — so topologies
// have a real registry to schedule. The returned factory builds a fresh
// engine per call, the way each cold process builds its own.
func topoWorkload(t *testing.T, n int) (mkEngine func() *core.Engine, src string, tests []ticket.TestCase) {
	t.Helper()
	var sb, spec strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `
class Session%d {
	bool closing;
}

class DataTree%d {
	map nodes;

	void createEphemeral(string path, Session%d owner) {
		nodes.put(path, owner);
	}
}

class Prep%d {
	DataTree%d tree;

	void processCreate(string path, Session%d s, int mode) {
		if (s == null || s.closing) {
			throw "KeeperException";
		}
		if (mode > 2) {
			tree.createEphemeral(path, s);
		} else {
			tree.createEphemeral(path, s);
		}
	}

	void route(string path, Session%d s, int mode) {
		if (mode == 1) {
			processCreate(path, s, mode);
		} else {
			processCreate(path, s, mode);
		}
	}
}
`, i, i, i, i, i, i, i)
		fmt.Fprintf(&spec, `
rule eph-%d
description: ephemeral create requires a live session (replica %d)
target: DataTree%d.createEphemeral
bind: s = arg 1
require: s != null && s.closing == false
`, i, i, i)
	}
	specText := spec.String()
	mkEngine = func() *core.Engine {
		sems, err := contract.ParseSpec(specText)
		if err != nil {
			t.Fatal(err)
		}
		e := core.New()
		for _, sem := range sems {
			if err := e.Registry.Add(sem); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	tests = []ticket.TestCase{{
		Name:        "TopoTest.liveCreate",
		Description: "create on a live session succeeds",
		Class:       "TopoTest",
		Method:      "liveCreate",
		Source: `
class TopoTest {
	static void liveCreate() {
		Prep0 p = new Prep0();
		p.tree = new DataTree0();
		p.tree.nodes = newMap();
		Session0 s = new Session0();
		s.closing = false;
		p.route("/live", s, 1);
		assertTrue(p.tree.nodes.has("/live"), "node created");
	}
}
`,
	}}
	return mkEngine, sb.String(), tests
}

// TestWaveWidthDoesNotChangeReport: how many goroutines share a wave is
// pure dispatch mechanics. A wave of 80 site jobs, each rule's two sites
// followed by its replay, runs inline at width 1 and spreads over two and
// four goroutines at widths 2 and 8, where a replay can be claimed while
// its sites still run; each run, and one without tests (80 site jobs and
// no replay), renders byte-identically to the sequential engine.
func TestWaveWidthDoesNotChangeReport(t *testing.T) {
	mk, src, tests := topoWorkload(t, 40)
	runs := []struct {
		workers int
		tests   []ticket.TestCase
	}{{1, tests}, {2, tests}, {8, tests}, {8, nil}}
	for _, run := range runs {
		seq, err := mk().Assert(src, run.tests)
		if err != nil {
			t.Fatal(err)
		}
		rep, stats, err := New().Assert(mk(), src, run.tests, Options{Workers: run.workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", run.workers, err)
		}
		if got, want := rep.Render(), seq.Render(); got != want {
			t.Errorf("workers=%d, %d tests: renders differently from sequential", run.workers, len(run.tests))
		}
		if stats.SiteJobs != 80 || stats.Executed+stats.CacheHits != stats.Jobs {
			t.Errorf("workers=%d, %d tests: %d site jobs, executed(%d)+hits(%d) != jobs(%d)",
				run.workers, len(run.tests), stats.SiteJobs, stats.Executed, stats.CacheHits, stats.Jobs)
		}
	}
}

// TestStoreTopologyByteIdentity is the store write-through determinism
// check: at every pool width, a cold scheduler writing through to an empty
// on-disk store, a fresh scheduler (cold memory, the next process) over the
// warmed store, and a warm repeat by one more such process all render
// byte-identically to the sequential engine, with both store-served runs
// executing no job.
func TestStoreTopologyByteIdentity(t *testing.T) {
	mk, src, tests := topoWorkload(t, 6)
	seq, err := mk().Assert(src, tests)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Render()
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i, run := range []string{"cold write-through", "fresh scheduler on the warmed store", "warm repeat"} {
				s := New()
				s.Cache().SetStore(st)
				rep, stats, err := s.Assert(mk(), src, tests, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", run, err)
				}
				if got := rep.Render(); got != want {
					t.Errorf("%s differs from sequential\n--- sequential ---\n%s\n--- %s ---\n%s", run, want, run, got)
				}
				if i > 0 && stats.Executed != 0 {
					t.Errorf("%s executed %d jobs, want 0 (all served from the store)", run, stats.Executed)
				}
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWorkersOneNoSlowerThanSequential is the width-1 pool satellite:
// workers=1 runs every job inline on the calling goroutine, so its
// wall clock must stay within 2% of the sequential engine loop (plus a
// small absolute allowance for timer noise on loaded runners). Both paths
// are warmed once first so the process-wide solver and snapshot caches
// serve them symmetrically, then each takes the best of four trials with a
// cold per-trial engine and scheduler.
func TestWorkersOneNoSlowerThanSequential(t *testing.T) {
	mk, src, tests := topoWorkload(t, 8)
	seqRun := func() {
		if _, err := mk().Assert(src, tests); err != nil {
			t.Fatal(err)
		}
	}
	schedRun := func() {
		if _, _, err := New().Assert(mk(), src, tests, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	seqRun()
	schedRun()
	best := func(run func()) time.Duration {
		b := time.Duration(1<<63 - 1)
		for i := 0; i < 4; i++ {
			start := time.Now()
			run()
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	seqBest := best(seqRun)
	schedBest := best(schedRun)
	limit := seqBest + seqBest/50 + 25*time.Millisecond
	if schedBest > limit {
		t.Errorf("workers=1 scheduled run %v exceeds sequential %v + 2%% (+25ms noise allowance)",
			schedBest, seqBest)
	}
}
