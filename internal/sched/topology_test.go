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

// TestMakeBatches: chunking preserves order and covers every job.
func TestMakeBatches(t *testing.T) {
	jobs := make([]*job, 10)
	for i := range jobs {
		jobs[i] = &job{name: fmt.Sprintf("j%d", i)}
	}
	batches := makeBatches(jobs, 4)
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	var flat []*job
	for i, b := range batches {
		want := 4
		if i == 2 {
			want = 2
		}
		if len(b.jobs) != want {
			t.Errorf("batch %d has %d jobs, want %d", i, len(b.jobs), want)
		}
		flat = append(flat, b.jobs...)
	}
	for i, j := range flat {
		if j != jobs[i] {
			t.Fatalf("batching reordered jobs at %d", i)
		}
	}
	if got := makeBatches(nil, 4); got != nil {
		t.Errorf("empty job set produced %d batches", len(got))
	}
}

// TestBatchSizeDoesNotChangeReport: the batch unit is pure dispatch
// mechanics — any size renders byte-identically to the sequential engine.
func TestBatchSizeDoesNotChangeReport(t *testing.T) {
	mk, src, tests := topoWorkload(t, 4)
	seq, err := mk().Assert(src, tests)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Render()
	for _, size := range []int{1, 3, 1024} {
		rep, stats, err := New().Assert(mk(), src, tests, Options{Workers: 8, batchSize: size})
		if err != nil {
			t.Fatalf("batch size %d: %v", size, err)
		}
		if got := rep.Render(); got != want {
			t.Errorf("batch size %d renders differently from sequential", size)
		}
		if stats.Executed+stats.CacheHits != stats.Jobs {
			t.Errorf("batch size %d: executed(%d)+hits(%d) != jobs(%d)",
				size, stats.Executed, stats.CacheHits, stats.Jobs)
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
// batched workers=1 runs every job inline on the calling goroutine, so its
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
