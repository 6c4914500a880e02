package sched

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

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
		if path := astPointer(reflect.ValueOf(v), minijPkg, "entry", map[uintptr]bool{}); path != "" {
			t.Fatalf("cached %T holds an AST pointer at %s", v, path)
		}
	}
	if sites == 0 || structurals == 0 || replays == 0 {
		t.Fatalf("walked %d site, %d structural and %d replay entries, want some of each", sites, structurals, replays)
	}
}

// astPointer returns the path of the first pointer to a type declared in
// package pkg reachable from v, or "" when there is none.
func astPointer(v reflect.Value, pkg, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		if v.Type().Elem().PkgPath() == pkg {
			return path
		}
		if seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return astPointer(v.Elem(), pkg, path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return astPointer(v.Elem(), pkg, path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := astPointer(v.Field(i), pkg, path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := astPointer(v.Index(i), pkg, fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			if p := astPointer(iter.Key(), pkg, path+"{key}", seen); p != "" {
				return p
			}
			if p := astPointer(iter.Value(), pkg, fmt.Sprintf("%s[%v]", path, iter.Key()), seen); p != "" {
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
