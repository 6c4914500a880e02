package sched

import (
	"slices"
	"strings"
	"testing"

	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/program"
	"lisa/internal/ticket"
)

const sysFixed = `
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

class Quota {
	int used;

	void charge(int n) {
		used = used + n;
	}
}
`

func testSuite() []ticket.TestCase {
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
		Quota q = new Quota();
		q.used = 0;
		q.charge(5);
		assertTrue(q.used == 5, "charged");
	}
}
`,
		},
	}
}

func engineWithRule(t *testing.T) *core.Engine {
	t.Helper()
	e := core.New()
	_, err := e.ProcessTicket(&ticket.Ticket{
		ID:          "ZK-1208",
		Title:       "Ephemeral node on closing session",
		BuggySource: strings.Replace(sysFixed, " || s.closing", "", 1),
		FixedSource: sysFixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// engineForCase registers every ticket of a corpus case (the timeline
// scenario: rules accumulate as bugs are fixed).
func engineForCase(t *testing.T, cs *ticket.Case) *core.Engine {
	t.Helper()
	e := core.New()
	for _, tk := range cs.Tickets {
		if _, err := e.ProcessTicket(tk); err != nil {
			t.Fatalf("%s/%s: %v", cs.ID, tk.ID, err)
		}
	}
	return e
}

// TestSchedulerMatchesSequentialOnCorpus is the determinism check over the
// full corpus: for every case, the sequential engine run and scheduled runs
// at workers=1, workers=8, and a warm-cache repeat all render byte-identical
// reports.
func TestSchedulerMatchesSequentialOnCorpus(t *testing.T) {
	for _, cs := range corpus.Load().Cases {
		cs := cs
		t.Run(cs.ID, func(t *testing.T) {
			e := engineForCase(t, cs)
			if e.Registry.Len() == 0 {
				t.Skipf("no rules registered for %s", cs.ID)
			}
			seq, err := e.Assert(cs.Head(), cs.Tests)
			if err != nil {
				t.Fatal(err)
			}
			want := seq.Render()

			s := New()
			runs := []struct {
				name string
				opts Options
			}{
				{"workers=1", Options{Workers: 1}},
				{"workers=8", Options{Workers: 8}},
				{"warm-cache", Options{Workers: 8}},
			}
			for _, run := range runs {
				rep, stats, err := s.Assert(e, cs.Head(), cs.Tests, run.opts)
				if err != nil {
					t.Fatalf("%s: %v", run.name, err)
				}
				if got := rep.Render(); got != want {
					t.Errorf("%s: report differs from sequential run\n--- sequential ---\n%s\n--- %s ---\n%s",
						run.name, want, run.name, got)
				}
				if stats.Executed+stats.CacheHits != stats.Jobs {
					t.Errorf("%s: executed(%d)+hits(%d) != jobs(%d)",
						run.name, stats.Executed, stats.CacheHits, stats.Jobs)
				}
			}
		})
	}
}

// TestWarmCacheSkipsAllWork: a byte-identical re-run is served entirely from
// cache — zero executed jobs, every semantic skipped.
func TestWarmCacheSkipsAllWork(t *testing.T) {
	e := engineWithRule(t)
	s := New()
	cold, coldStats, err := s.Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Executed != coldStats.Jobs || coldStats.CacheHits != 0 {
		t.Fatalf("cold run: executed=%d hits=%d jobs=%d", coldStats.Executed, coldStats.CacheHits, coldStats.Jobs)
	}
	warm, warmStats, err := s.Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Executed != 0 {
		t.Errorf("warm run executed %d jobs, want 0", warmStats.Executed)
	}
	if warmStats.CacheHits != warmStats.Jobs {
		t.Errorf("warm run hits=%d jobs=%d", warmStats.CacheHits, warmStats.Jobs)
	}
	if warmStats.SkippedSemantics == 0 || warmStats.AssertedSemantics != 0 {
		t.Errorf("warm run skipped=%d asserted=%d", warmStats.SkippedSemantics, warmStats.AssertedSemantics)
	}
	if cold.Render() != warm.Render() {
		t.Errorf("warm report differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold.Render(), warm.Render())
	}
	st := s.Cache().Stats()
	if st.Entries == 0 || st.Hits == 0 {
		t.Errorf("cache stats = %+v", st)
	}
}

// TestWhitespaceChangeHitsCache: fingerprints are canonical-AST based, so a
// reformatted source is a full cache hit.
func TestWhitespaceChangeHitsCache(t *testing.T) {
	e := engineWithRule(t)
	s := New()
	if _, _, err := s.Assert(e, sysFixed, nil, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	reformatted := strings.ReplaceAll(sysFixed, "\t", "    ")
	_, stats, err := s.Assert(e, reformatted, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 {
		t.Errorf("whitespace-only change executed %d jobs, want 0", stats.Executed)
	}
}

// TestIncrementalSingleMethodChange: after a warm run, changing one method
// that no contract site can reach re-executes strictly fewer jobs than the
// cold run, with verdicts identical to a fresh sequential assertion.
func TestIncrementalSingleMethodChange(t *testing.T) {
	e := engineWithRule(t)
	s := New()
	_, coldStats, err := s.Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	changed := strings.Replace(sysFixed, "used = used + n;", "used = used + n + 0;", 1)
	if changed == sysFixed {
		t.Fatal("mutation failed")
	}
	rep, stats, err := s.Assert(e, changed, testSuite(), Options{
		Workers: 4, Incremental: true, Base: loadIn(t, e.LoadSnapshot, sysFixed),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirtyAll {
		t.Error("single-body change marked DirtyAll")
	}
	if len(stats.DirtyMethods) != 1 || stats.DirtyMethods[0] != "Quota.charge" {
		t.Errorf("dirty methods = %v, want [Quota.charge]", stats.DirtyMethods)
	}
	if stats.Executed >= coldStats.Executed {
		t.Errorf("incremental run executed %d jobs, cold executed %d — want strictly fewer",
			stats.Executed, coldStats.Executed)
	}
	if stats.ImpactedJobs >= stats.Jobs {
		t.Errorf("impacted=%d of %d jobs — dirty set did not narrow anything", stats.ImpactedJobs, stats.Jobs)
	}
	// The site jobs are unreachable from Quota.charge, so only dynamic
	// replay (which executes arbitrary code) re-runs.
	if stats.Executed != stats.DynamicJobs {
		t.Errorf("executed=%d, want only the %d dynamic jobs", stats.Executed, stats.DynamicJobs)
	}

	seq, err := e.Assert(changed, testSuite())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Render() != seq.Render() {
		t.Errorf("incremental report differs from sequential:\n--- sequential ---\n%s\n--- incremental ---\n%s",
			seq.Render(), rep.Render())
	}
}

// TestGuardChangeInvalidatesSite: editing a method inside a site's closure
// misses the cache and re-runs that site, and a weakened guard flips the
// verdict.
func TestGuardChangeInvalidatesSite(t *testing.T) {
	e := engineWithRule(t)
	s := New()
	if _, _, err := s.Assert(e, sysFixed, nil, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	weakened := strings.Replace(sysFixed, "s == null || s.closing", "s == null", 1)
	rep, stats, err := s.Assert(e, weakened, nil, Options{
		Workers: 1, Incremental: true, Base: loadIn(t, e.LoadSnapshot, sysFixed),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.DirtyMethods) != 1 || stats.DirtyMethods[0] != "PrepProcessor.processCreate" {
		t.Errorf("dirty methods = %v", stats.DirtyMethods)
	}
	if stats.Executed == 0 {
		t.Error("guard change served entirely from cache")
	}
	if rep.Counts.Violations == 0 {
		t.Error("weakened guard produced no violation")
	}
}

// loadIn loads src through load (a snapshot cache's, or an engine's),
// failing the test when it does not build.
func loadIn(t *testing.T, load func(string) (*program.Snapshot, error), src string) *program.Snapshot {
	t.Helper()
	snap, err := load(src)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestDirtySet exercises the change-localization ladder.
func TestDirtySet(t *testing.T) {
	cache := program.NewCache(0)
	base := loadIn(t, cache.Load, sysFixed)
	dirty := func(src string) *Dirty {
		t.Helper()
		return ComputeDirtySnapshots(base, loadIn(t, cache.Load, src))
	}

	reformatted := strings.ReplaceAll(sysFixed, "\t", "  ")
	if d := dirty(reformatted); d.Any() {
		t.Errorf("whitespace-only change dirty: all=%v methods=%v", d.All, d.SortedMethods())
	}

	body := strings.Replace(sysFixed, "used = used + n;", "used = used + n + 1;", 1)
	d := dirty(body)
	if d.All || len(d.Methods) != 1 || !d.Contains("Quota.charge") {
		t.Errorf("body change: all=%v methods=%v", d.All, d.SortedMethods())
	}
	if d.Contains("DataTree.createEphemeral") {
		t.Error("unrelated method marked dirty")
	}

	sig := strings.Replace(sysFixed, "void charge(int n)", "void charge(int n, int m)", 1)
	if d := dirty(sig); !d.All {
		t.Error("signature change not marked All")
	}

	newClass := sysFixed + "\nclass Extra {\n\tint x;\n}\n"
	if d := dirty(newClass); !d.All {
		t.Error("new class not marked All")
	}
}

// TestUnbuildableBaseMarksAllDirty: a base source that does not build
// cannot localize the change, so the whole change is dirty and every job
// is impacted.
func TestUnbuildableBaseMarksAllDirty(t *testing.T) {
	e := engineWithRule(t)
	base, err := e.LoadSnapshot("class Broken {")
	if err == nil {
		t.Fatal("the broken base built")
	}
	_, stats, err := New().Assert(e, sysFixed, nil, Options{
		Workers: 1, Incremental: true, Base: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.DirtyAll || stats.Jobs == 0 || stats.ImpactedJobs != stats.Jobs {
		t.Errorf("all=%v impacted=%d of %d jobs, want every job impacted", stats.DirtyAll, stats.ImpactedJobs, stats.Jobs)
	}
}

// TestDirtySnapshotsMemoPerBase: the snapshot dirty set is memoized on
// the change, once per base — gating one change against two bases gives
// each its own diff, and asking again diffs nothing.
func TestDirtySnapshotsMemoPerBase(t *testing.T) {
	cache, fresh := program.NewCache(0), program.NewCache(0)
	changed := strings.Replace(sysFixed, "used = used + n;", "used = used + n + 1;", 1)
	change := loadIn(t, cache.Load, changed)
	for _, base := range []*program.Snapshot{loadIn(t, cache.Load, sysFixed), change} {
		got := ComputeDirtySnapshots(base, change)
		// The same diff over snapshots no memo has seen.
		want := ComputeDirtySnapshots(loadIn(t, fresh.Load, base.Source()), loadIn(t, fresh.Load, changed))
		if got.All != want.All || got.Stat != want.Stat || !slices.Equal(got.SortedMethods(), want.SortedMethods()) {
			t.Errorf("dirty set = all=%v %+v %v, want all=%v %+v %v",
				got.All, got.Stat, got.SortedMethods(), want.All, want.Stat, want.SortedMethods())
		}
		if again := ComputeDirtySnapshots(base, change); again != got {
			t.Error("second call recomputed the dirty set")
		}
	}
}

// TestEngineOptionsInvalidateCache: ablation switches participate in the
// fingerprints, so flipping one on the same scheduler cache re-executes.
func TestEngineOptionsInvalidateCache(t *testing.T) {
	e := engineWithRule(t)
	s := New()
	if _, _, err := s.Assert(e, sysFixed, nil, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	e.IntraOnly = true
	defer func() { e.IntraOnly = false }()
	_, stats, err := s.Assert(e, sysFixed, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed == 0 {
		t.Error("IntraOnly flip served from cache — engine options missing from fingerprint")
	}
}

// TestReplayFingerprintCoversDescription: a rule re-registered with the
// same ID and checker but a new description must not be served the old
// replay overlay, because test selection ranks against the description.
// Only the replay job re-runs; site jobs do not read the description.
func TestReplayFingerprintCoversDescription(t *testing.T) {
	e := engineWithRule(t)
	e.TestTopK = 1
	s := New()
	if _, _, err := s.Assert(e, sysFixed, testSuite(), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	redescribed := *e.Registry.All()[0]
	redescribed.Description = "quota accounting for large writes: a quota charge accumulates, quota used is charged"
	if err := e.Registry.Add(&redescribed); err != nil {
		t.Fatal(err)
	}
	warm, stats, err := s.Assert(e, sysFixed, testSuite(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := e.Assert(sysFixed, testSuite())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seq.Render(), "selected=QuotaTest.chargeAccumulates") {
		t.Fatalf("the new description does not steer selection; the scenario tests nothing:\n%s", seq.Render())
	}
	if warm.Render() != seq.Render() {
		t.Errorf("warm run differs from sequential:\n--- sequential ---\n%s\n--- warm ---\n%s", seq.Render(), warm.Render())
	}
	if stats.Executed != stats.DynamicJobs {
		t.Errorf("executed=%d, want only the %d dynamic jobs", stats.Executed, stats.DynamicJobs)
	}
}

// TestSchedulerBadSource propagates compile errors like the sequential path.
func TestSchedulerBadSource(t *testing.T) {
	e := engineWithRule(t)
	if _, _, err := New().Assert(e, "class {", nil, Options{}); err == nil {
		t.Error("expected compile error")
	}
}
