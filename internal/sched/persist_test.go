package sched

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/faultinject"
	"lisa/internal/store"
)

func openStoreT(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func storeLogBytes(t *testing.T, st *store.Store) []byte {
	t.Helper()
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(st.Dir(), "store.log"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return b
}

// TestColdSchedulerOnWarmStore: a fresh scheduler (empty memory tier) over a
// store warmed by a previous scheduler serves every job from the disk tier —
// zero executed jobs — and renders a byte-identical report.
func TestColdSchedulerOnWarmStore(t *testing.T) {
	e := engineWithRule(t)
	base, _, err := New().Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := base.Render()

	st := openStoreT(t)
	warm := New()
	warm.Cache().SetStore(st)
	warmRep, _, err := warm.Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := warmRep.Render(); got != want {
		t.Fatalf("store-attached run differs from store-less run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if ts := warm.Cache().TierStats(); ts.DiskWrites == 0 {
		t.Fatalf("warm run wrote nothing to the store: %+v", ts)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	cold := New()
	cold.Cache().SetStore(st)
	rep, stats, err := cold.Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Render(); got != want {
		t.Fatalf("cold-on-warm-store report differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if stats.Executed != 0 || stats.CacheHits != stats.Jobs {
		t.Fatalf("cold-on-warm-store executed=%d hits=%d jobs=%d, want all disk hits",
			stats.Executed, stats.CacheHits, stats.Jobs)
	}
	cs := cold.Cache().Stats()
	if cs.DiskHits == 0 || cs.DiskWrites != 0 {
		t.Fatalf("cold cache stats = %+v, want disk hits and no re-writes", cs)
	}
	// Promotion: a repeat run on the same scheduler stays in memory.
	if _, stats2, err := cold.Assert(e, sysFixed, testSuite(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	} else if stats2.Executed != 0 {
		t.Fatalf("promoted re-run executed %d jobs", stats2.Executed)
	}
	if cs2 := cold.Cache().Stats(); cs2.DiskHits != cs.DiskHits {
		t.Fatalf("promoted re-run went back to disk: %+v -> %+v", cs, cs2)
	}
}

// TestCorruptedStoreFallsBackToRecompute: with the store.read fault point
// corrupting every frame read, disk lookups fail their CRC, the scheduler
// recomputes everything, and the report stays byte-identical. Because the
// plan is armed, the recomputed results must NOT be written back — the
// store file is byte-identical before and after the poisoned run.
func TestCorruptedStoreFallsBackToRecompute(t *testing.T) {
	e := engineWithRule(t)
	base, _, err := New().Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := base.Render()

	st := openStoreT(t)
	warm := New()
	warm.Cache().SetStore(st)
	if _, _, err := warm.Assert(e, sysFixed, testSuite(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	before := storeLogBytes(t, st)
	if len(before) == 0 {
		t.Fatal("warm run left an empty store")
	}

	faultinject.Arm(faultinject.NewPlan(7).Set(store.FaultPointRead, faultinject.Corrupt))
	defer faultinject.Disarm()
	cold := New()
	cold.Cache().SetStore(st)
	rep, stats, err := cold.Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Disarm()
	if got := rep.Render(); got != want {
		t.Fatalf("poisoned-store report differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if stats.Executed != stats.Jobs {
		t.Fatalf("poisoned store served %d cache hits, want full recompute", stats.CacheHits)
	}
	cs := cold.Cache().Stats()
	if cs.DiskHits != 0 || cs.DiskMisses == 0 {
		t.Fatalf("poisoned cache stats = %+v, want only disk misses", cs)
	}
	after := storeLogBytes(t, st)
	if string(before) != string(after) {
		t.Fatalf("poisoned run mutated the store: %d bytes -> %d bytes", len(before), len(after))
	}
	ss := st.Stats()
	if ss.Corruptions == 0 {
		t.Fatalf("store stats = %+v, want detected corruptions", ss)
	}
	if ss.ArmedSkips == 0 {
		t.Fatalf("store stats = %+v, want armed puts skipped", ss)
	}
}

// TestStoreDisabledUnchanged: with no store attached the disk counters stay
// zero and behavior matches the store-less baseline exactly.
func TestStoreDisabledUnchanged(t *testing.T) {
	e := engineWithRule(t)
	s := New()
	rep, stats, err := s.Assert(e, sysFixed, testSuite(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := New().Assert(e, sysFixed, testSuite(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Render() != base.Render() {
		t.Fatal("store-disabled report differs from baseline")
	}
	if stats.Executed != stats.Jobs {
		t.Fatalf("store-disabled cold run executed=%d jobs=%d", stats.Executed, stats.Jobs)
	}
	cs := s.Cache().Stats()
	if cs.DiskHits != 0 || cs.DiskMisses != 0 || cs.DiskWrites != 0 {
		t.Fatalf("disk counters moved without a store: %+v", cs)
	}
}

// dynRecordV1 is an fp.dyn.v1 record as the encoder that mirrored
// dynOverlay field for field wrote it; fp.dyn.v2 and v3 records have the same
// bytes.
const dynRecordV1 = `{"testsRun":3,"sites":[{"selected":["T.a","T.b"],"paths":[{"coveredBy":["T.a"],"dynVerdicts":{"T.a":0,"T.b":1},"postViolatedBy":["T.a"]},{}]},{"paths":[]}]}`

// TestDynamicRecordBytesUnchanged: a replay overlay is its own fp.dyn.v1
// record. A record written before the mirror types were deleted decodes to
// the overlay it came from, and encoding that overlay gives the same bytes.
func TestDynamicRecordBytesUnchanged(t *testing.T) {
	want := &dynOverlay{TestsRun: 3, Sites: []siteDyn{
		{Selected: []string{"T.a", "T.b"}, Paths: []pathDyn{
			{CoveredBy: []string{"T.a"}, DynVerdicts: map[string]concolic.Verdict{"T.b": concolic.VerdictViolation, "T.a": concolic.VerdictVerified}, PostViolatedBy: []string{"T.a"}},
			{DynVerdicts: map[string]concolic.Verdict{}},
		}},
		{Paths: []pathDyn{}},
	}}
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != dynRecordV1 {
		t.Errorf("encoded overlay:\n%s\nwant:\n%s", raw, dynRecordV1)
	}
	var got dynOverlay
	if err := json.Unmarshal([]byte(dynRecordV1), &got); err != nil {
		t.Fatal(err)
	}
	// The empty verdict map is omitted on disk and decodes as nil.
	want.Sites[0].Paths[1].DynVerdicts = nil
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("decoded %+v, want %+v", got, *want)
	}
}

// TestStructuralV1RecordIsMiss: structural records moved to fp.str.v2
// when each finding began to be confirmed by its own rule's monitor, so a
// record stored only under fp.str.v1 is recomputed, never served. The same
// bytes under the current namespace are served. A well-formed current
// record whose violation names a method the program lacks does not anchor:
// it is refused, recomputed, and the recomputed record is written back.
func TestStructuralV1RecordIsMiss(t *testing.T) {
	cs := corpus.Load().Get("zk-sync-serialize")
	e := engineForCase(t, cs)
	src := cs.Tickets[1].BuggySource
	ctx, err := e.Prepare(src, nil, core.StageTimings{})
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	for _, sp := range New().plan(e, ctx, nil) {
		if sp.structural != nil {
			fps = append(fps, sp.structural.fp)
		}
	}
	if len(fps) == 0 {
		t.Fatal("no structural jobs planned")
	}

	warmStore := openStoreT(t)
	warm := New()
	warm.Cache().SetStore(warmStore)
	base, _, err := warm.Assert(e, src, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := warmStore.Flush(); err != nil {
		t.Fatal(err)
	}

	// unanchored adds a violation in a method the program lacks.
	unanchored := func(raw []byte) []byte {
		var rec structuralRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		rec.Violations = append(rec.Violations, violationRecord{Rule: "ghost", Method: "Ghost.vanish", Stmt: -1})
		out, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tt := range []struct {
		ns string
		// edit rewrites each record before it is stored (nil: as is).
		edit func([]byte) []byte
		hits uint64
	}{
		{"fp.str.v1", nil, 0},
		{structuralNamespace, nil, uint64(len(fps))},
		{structuralNamespace, unanchored, 0},
	} {
		st := openStoreT(t)
		for _, fp := range fps {
			raw, ok := warmStore.Get(structuralNamespace, fp)
			if !ok {
				t.Fatalf("no %s record for %s", structuralNamespace, fp)
			}
			if tt.edit != nil {
				raw = tt.edit(raw)
			}
			st.Put(tt.ns, fp, raw)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		cold := New()
		cold.Cache().SetStore(st)
		rep, stats, err := cold.Assert(e, src, nil, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if stats.DiskHits != tt.hits {
			t.Errorf("records under %s: %d disk hits, want %d", tt.ns, stats.DiskHits, tt.hits)
		}
		if rep.Render() != base.Render() {
			t.Errorf("records under %s changed the report:\n%s", tt.ns, rep.Render())
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, fp := range fps {
			want, _ := warmStore.Get(structuralNamespace, fp)
			if got, _ := st.Get(structuralNamespace, fp); string(got) != string(want) {
				t.Errorf("records under %s: %s holds %s, want the recomputed %s", tt.ns, structuralNamespace, got, want)
			}
		}
	}
}

// TestSiteAndReplayV1RecordsAreMisses: site and replay records moved to v2
// when an inherited guard began to carry its mark once, so a record stored
// only under fp.site.v1 or fp.dyn.v1, whose guard text may carry a doubled
// mark, is recomputed, never served. They moved to v3 when a slot operand
// whose value the frame knows began to bind to its path, so a v2 record,
// which may lack that binding, is recomputed too. The same bytes under the
// current namespaces are served.
func TestSiteAndReplayV1RecordsAreMisses(t *testing.T) {
	cs := corpus.Load().Get("zk-ephemeral")
	e := engineForCase(t, cs)
	src := cs.Head()
	ctx, err := e.Prepare(src, cs.Tests, core.StageTimings{})
	if err != nil {
		t.Fatal(err)
	}
	type record struct{ ns, fp string }
	var recs []record
	for _, sp := range New().plan(e, ctx, nil) {
		for _, j := range sp.sites {
			recs = append(recs, record{siteNamespace, j.fp})
		}
		if sp.dynamic != nil {
			recs = append(recs, record{dynamicNamespace, sp.dynamic.fp})
		}
	}
	if len(recs) < 2 {
		t.Fatalf("planned %d site and replay jobs, want both kinds", len(recs))
	}

	warmStore := openStoreT(t)
	warm := New()
	warm.Cache().SetStore(warmStore)
	base, _, err := warm.Assert(e, src, cs.Tests, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := warmStore.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, tt := range []struct {
		version string
		hits    uint64
	}{
		{"v1", 0},
		{"v2", 0},
		{"v3", uint64(len(recs))},
	} {
		st := openStoreT(t)
		for _, r := range recs {
			raw, ok := warmStore.Get(r.ns, r.fp)
			if !ok {
				t.Fatalf("no %s record for %s", r.ns, r.fp)
			}
			st.Put(strings.TrimSuffix(r.ns, ".v3")+"."+tt.version, r.fp, raw)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		cold := New()
		cold.Cache().SetStore(st)
		rep, stats, err := cold.Assert(e, src, cs.Tests, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if stats.DiskHits != tt.hits {
			t.Errorf("records under %s: %d disk hits, want %d", tt.version, stats.DiskHits, tt.hits)
		}
		if rep.Render() != base.Render() {
			t.Errorf("records under %s changed the report:\n%s", tt.version, rep.Render())
		}
	}
}

// TestControlByteGuardRestoresFromStore: a guard comparing against a string
// constant that holds a raw control byte renders the constant with a \x01
// escape. The lexer decodes every escape strconv.Quote emits, so the
// persisted site record parses back, and a fresh scheduler over the store
// serves the site job from the disk tier instead of recomputing it.
func TestControlByteGuardRestoresFromStore(t *testing.T) {
	const src = "class Sess { string mode; }\n" +
		"class Srv {\n" +
		"\tvoid open(Sess s) { log(\"open\"); }\n" +
		"\tvoid handle(Sess s) {\n" +
		"\t\tif (s != null && s.mode != \"a\x01b\") {\n" +
		"\t\t\topen(s);\n" +
		"\t\t}\n" +
		"\t}\n" +
		"}\n"
	sems, err := contract.ParseSpec(`
rule srv-open
description: a server opens only a live session
target: Srv.open
bind: s = arg 0
require: s != null
`)
	if err != nil {
		t.Fatal(err)
	}
	e := core.New()
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			t.Fatal(err)
		}
	}
	st := openStoreT(t)
	first := New()
	first.Cache().SetStore(st)
	rep, _, err := first.Assert(e, src, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Render()
	if !strings.Contains(want, `s.mode != "a\x01b"`) {
		t.Fatalf("the path condition does not quote the control byte:\n%s", want)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	second := New()
	second.Cache().SetStore(st)
	rep, stats, err := second.Assert(e, src, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Render(); got != want {
		t.Fatalf("restored report differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if hits := second.Cache().Stats().DiskHits; stats.Executed != 0 || hits != 1 {
		t.Fatalf("second scheduler executed %d jobs with %d disk hits, want 0 and 1", stats.Executed, hits)
	}
}
