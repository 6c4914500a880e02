package sched

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"lisa/internal/concolic"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/minij"
)

// voidBody matches the opening of a void method body, where a dead local
// can go without adding a path condition.
var voidBody = regexp.MustCompile(`\bvoid\s+\w+\([^)]*\)\s*\{`)

// TestBoundedFingerprintCacheStaysWarm gates a stream of distinct
// one-method edits of a 33-replica system incrementally against its primed
// head, through a fingerprint cache capped far below what the stream
// writes. Each gate's wave holds 66 site jobs, so a wide pool spreads it
// over several goroutines and the cache really runs concurrently. The
// bound must hold after every gate and evict, reports must stay
// byte-identical to the sequential engine, and every gate must execute
// exactly what an uncapped scheduler executes on the same stream: the
// head's site entries, re-touched by every gate whose edit misses their
// closure, are never the least recently used.
func TestBoundedFingerprintCacheStaysWarm(t *testing.T) {
	const (
		gates = 24
		// Each gate writes 35 entries (an edited replica's two sites and
		// every replica's replay) and re-touches the other head site
		// entries. Consecutive gates edit one replica's three void methods,
		// so its head entries go three gates untouched: about 200 entries
		// land after them. The cap keeps them, and still evicts most of the
		// 840 entries the stream writes.
		capacity = 256
	)
	mk, head, tests := topoWorkload(t, 33)
	e := mk()
	base, err := e.LoadSnapshot(head)
	if err != nil {
		t.Fatal(err)
	}
	voids := voidBody.FindAllStringIndex(head, -1)
	edits := make([]string, gates)
	want := make([]string, gates)
	for k := range edits {
		off := voids[k%len(voids)][1]
		edits[k] = head[:off] + fmt.Sprintf(" int lruEdit%d = %d;", k, k) + head[off:]
		seq, err := e.Assert(edits[k], tests)
		if err != nil {
			t.Fatalf("edit %d: %v", k, err)
		}
		want[k] = seq.Render()
	}

	// stream primes s with the head, then gates every edit against it.
	stream := func(t *testing.T, s *Scheduler, workers int, check func(k int, rep *core.AssertReport, stats *Stats)) {
		if _, _, err := s.Assert(e, head, tests, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		for k, src := range edits {
			rep, stats, err := s.Assert(e, src, tests, Options{Workers: workers, Incremental: true, Base: base})
			if err != nil {
				t.Fatalf("edit %d: %v", k, err)
			}
			check(k, rep, stats)
		}
	}
	uncapped := make([]int, gates)
	stream(t, New(), 1, func(k int, _ *core.AssertReport, stats *Stats) {
		if stats.Jobs >= capacity {
			t.Fatalf("edit %d plans %d jobs, not below the test cap %d", k, stats.Jobs, capacity)
		}
		uncapped[k] = stats.Executed
	})

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := newScheduler(capacity)
			stream(t, s, workers, func(k int, rep *core.AssertReport, stats *Stats) {
				if got := rep.Render(); got != want[k] {
					t.Fatalf("edit %d renders differently from sequential\n--- sequential ---\n%s\n--- capped ---\n%s", k, want[k], got)
				}
				if stats.Executed != uncapped[k] {
					t.Errorf("edit %d executed %d jobs, uncapped scheduler executed %d", k, stats.Executed, uncapped[k])
				}
				if n := s.Cache().Stats().Entries; n > capacity {
					t.Fatalf("edit %d left %d entries, over the cap %d", k, n, capacity)
				}
			})
			if ev := s.Cache().Stats().Evictions; ev == 0 {
				t.Fatalf("%d gates through a %d-entry cache evicted nothing", gates, capacity)
			}
		})
	}
}

// TestFingerprintCacheHoldsNoAST: a cached site, structural or replay
// result holds no pointer into a program's AST. The fingerprint cache
// outlives the snapshot cache by far (16,384 entries against a few hundred
// snapshots), so any node it held would keep a long-evicted version's
// program alive. Every corpus version is asserted with its case's suite,
// then every memory-tier value is walked by reflection.
func TestFingerprintCacheHoldsNoAST(t *testing.T) {
	s := New()
	for _, cs := range corpus.Load().Cases {
		e := engineForCase(t, cs)
		versions := []string{cs.Head()}
		for _, tk := range cs.Tickets {
			versions = append(versions, tk.BuggySource, tk.FixedSource)
		}
		for _, src := range versions {
			// A version that does not build with its suite has no entries.
			_, _, _ = s.Assert(e, src, cs.Tests, Options{Workers: 1})
		}
	}
	minijPkg := reflect.TypeOf(minij.Pos{}).PkgPath()
	inMinij := func(t reflect.Type) bool { return t.PkgPath() == minijPkg }
	sites, structurals, replays := 0, 0, 0
	for _, key := range s.cache.mem.Keys() {
		v, _ := s.cache.mem.Get(key)
		switch v.(type) {
		case *siteEntry:
			sites++
		case *structuralRecord:
			structurals++
		case *dynOverlay:
			replays++
		default:
			t.Fatalf("cached %T is not a site, structural or replay result", v)
		}
		if path := pointerTo(reflect.ValueOf(v), inMinij, "entry", map[uintptr]bool{}); path != "" {
			t.Fatalf("cached %T holds an AST pointer at %s", v, path)
		}
	}
	if sites == 0 || structurals == 0 || replays == 0 {
		t.Fatalf("walked %d site, %d structural and %d replay entries, want some of each", sites, structurals, replays)
	}
}

// pointerTo returns the path of the first pointer to a type that match
// accepts reachable from v, or "" when there is none.
func pointerTo(v reflect.Value, match func(reflect.Type) bool, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		if match(v.Type().Elem()) {
			return path
		}
		if seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return pointerTo(v.Elem(), match, path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return pointerTo(v.Elem(), match, path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := pointerTo(v.Field(i), match, path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := pointerTo(v.Index(i), match, fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			if p := pointerTo(iter.Key(), match, path+"{key}", seen); p != "" {
				return p
			}
			if p := pointerTo(iter.Value(), match, fmt.Sprintf("%s[%v]", path, iter.Key()), seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestStructuralHitRendersCurrentPositions: a structural result served
// from the memory tier renders the positions of the program being
// asserted. The structural fingerprint hashes the canonical program, so a
// reformatted version (here three leading newlines) hits the entry its
// original wrote; the hit must render like a fresh scheduler's run of the
// reformatted version, as a disk hit does.
func TestStructuralHitRendersCurrentPositions(t *testing.T) {
	cs := corpus.Load().Get("zk-sync-serialize")
	src, err := cs.Version("ZKS-3531:buggy")
	if err != nil {
		t.Fatal(err)
	}
	e := engineForCase(t, cs)
	shifted := "\n\n\n" + src
	fresh, _, err := New().Assert(e, shifted, cs.Tests, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Render()
	if !strings.Contains(want, "ReferenceCountedACLCache.serialize @47:4") {
		t.Fatalf("fresh run of the shifted version lacks the finding at @47:4:\n%s", want)
	}
	s := New()
	if _, _, err := s.Assert(e, src, cs.Tests, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	rep, stats, err := s.Assert(e, shifted, cs.Tests, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 {
		t.Fatalf("shifted version executed %d jobs, want every structural job served from the memory tier", stats.Executed)
	}
	if got := rep.Render(); got != want {
		t.Fatalf("memory hit renders\n%s\nwant the fresh run's\n%s", got, want)
	}
}

// TestNoChainTopOutlivesItsUnit: a unit's chain tops belong to its run
// alone. After a scheduled assert of a wave of two-site units, spread over
// two goroutines, nothing reachable from the report, the fingerprint
// cache's entries or the site-plan memo holds a ChainTops or a walker
// state.
func TestNoChainTopOutlivesItsUnit(t *testing.T) {
	mk, src, tests := topoWorkload(t, 40)
	e, s := mk(), New()
	rep, _, err := s.Assert(e, src, tests, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	concolicPkg := reflect.TypeOf(concolic.ChainTops{}).PkgPath()
	isTop := func(t reflect.Type) bool {
		return t.PkgPath() == concolicPkg && (t.Name() == "ChainTops" || t.Name() == "sframe")
	}
	roots := map[string]any{"report": rep}
	for _, key := range s.cache.mem.Keys() {
		roots["cache "+key], _ = s.cache.mem.Get(key)
	}
	actx, err := e.Prepare(src, tests, nil)
	if err != nil {
		t.Fatal(err)
	}
	staticFP := staticEngineFP(e)
	for _, sem := range e.Registry.All() {
		roots["plan "+sem.ID] = sitePlans(e, actx, sem, semFingerprint(sem), staticFP, func(*minij.Method) string {
			t.Fatalf("site plans of %s rebuilt: the memo of the run is gone", sem.ID)
			return ""
		})
	}
	if len(roots) != 1+80+40+40 {
		t.Fatalf("walked %d roots, want the report, 120 cache entries and 40 plans", len(roots))
	}
	seen := map[uintptr]bool{}
	for name, v := range roots {
		if path := pointerTo(reflect.ValueOf(v), isTop, name, seen); path != "" {
			t.Fatalf("%s holds a chain top at %s", name, path)
		}
	}
}
