package sched

import (
	"fmt"
	"regexp"
	"testing"

	"lisa/internal/core"
	"lisa/internal/corpus"
)

// voidBody matches the opening of a void method body, where a dead local
// can go without adding a path condition.
var voidBody = regexp.MustCompile(`\bvoid\s+\w+\([^)]*\)\s*\{`)

// TestBoundedFingerprintCacheStaysWarm gates a stream of distinct
// one-method edits of a corpus case incrementally against its primed head,
// through a fingerprint cache capped far below what the stream writes. The
// bound must hold after every gate and evict, reports must stay
// byte-identical to the sequential engine, and every gate must execute
// exactly what an uncapped scheduler executes on the same stream: the
// head's site entries, re-touched by every gate whose edit misses their
// closure, are never the least recently used.
func TestBoundedFingerprintCacheStaysWarm(t *testing.T) {
	const (
		gates = 50
		// capacity is four gates' worth of zk-ephemeral jobs: small enough
		// that the stream evicts, large enough that a head entry outlives
		// the longest run of consecutive edits inside its closure.
		capacity = 16
	)
	cs := corpus.Load().Get("zk-ephemeral")
	e := engineForCase(t, cs)
	head := cs.Head()
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
		seq, err := e.Assert(edits[k], cs.Tests)
		if err != nil {
			t.Fatalf("edit %d: %v", k, err)
		}
		want[k] = seq.Render()
	}

	// stream primes s with the head, then gates every edit against it. One
	// job per batch, so a wide pool really runs the cache concurrently.
	stream := func(t *testing.T, s *Scheduler, workers int, check func(k int, rep *core.AssertReport, stats *Stats)) {
		if _, _, err := s.Assert(e, head, cs.Tests, Options{Workers: workers, batchSize: 1}); err != nil {
			t.Fatal(err)
		}
		for k, src := range edits {
			rep, stats, err := s.Assert(e, src, cs.Tests, Options{Workers: workers, batchSize: 1, Incremental: true, Base: base})
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
