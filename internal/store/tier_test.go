package store_test

import (
	"testing"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/smt"
	"lisa/internal/store"
)

const tierSource = `
class Journal {
	int entries;

	void append(int n) {
		entries = entries + n;
	}
}
`

// tierCounts is the part of a TierStats row the cross-cache contract
// pins: how lookups split between the memory and disk tiers.
type tierCounts struct{ MemHits, MemMisses, DiskHits, DiskMisses uint64 }

func countsOf(ts store.TierStats) tierCounts {
	return tierCounts{ts.MemHits, ts.MemMisses, ts.DiskHits, ts.DiskMisses}
}

// TestTierRowCountsMemoryOutcomes: for each of the three caches behind a
// disk tier, one lookup that a fresh cache serves from a warm store reads
// as one memory miss plus one disk hit, and repeating the lookup adds one
// memory hit. The memory fields count memory-tier outcomes only, whatever
// served the lookup afterwards.
func TestTierRowCountsMemoryOutcomes(t *testing.T) {
	rule, err := contract.ParseSpec("rule no-io-in-sync\ndescription: no blocking I/O under a lock\nstructural: no-blocking-io-in-sync\n")
	if err != nil {
		t.Fatal(err)
	}
	formula, err := smt.ParsePredicate("x > 0 && y != x")
	if err != nil {
		t.Fatal(err)
	}
	caches := []struct {
		name string
		// attach builds a fresh cache on st and returns its row and one
		// lookup through it.
		attach func(t *testing.T, st *store.Store) (row func() store.TierStats, lookup func())
	}{
		{"snapshot", func(t *testing.T, st *store.Store) (func() store.TierStats, func()) {
			c := program.NewCache(0)
			c.SetStore(st)
			return c.TierStats, func() {
				if _, err := c.Load(tierSource); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"solver", func(t *testing.T, st *store.Store) (func() store.TierStats, func()) {
			c := smt.NewQueryCache(0)
			c.SetStore(st)
			return c.TierStats, func() {
				if _, err := smt.SATLim(formula, smt.Limits{Cache: c}); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"fingerprint", func(t *testing.T, st *store.Store) (func() store.TierStats, func()) {
			// One structural rule and no tests: each run plans one job.
			e := core.New()
			e.Snapshots = program.NewCache(0)
			if err := e.Registry.Add(rule[0]); err != nil {
				t.Fatal(err)
			}
			s := sched.New()
			s.Cache().SetStore(st)
			return s.Cache().TierStats, func() {
				if _, stats, err := s.Assert(e, tierSource, nil, sched.Options{Workers: 1}); err != nil || stats.Jobs != 1 {
					t.Fatalf("run planned %v jobs (err %v), want 1", stats, err)
				}
			}
		}},
	}
	for _, tc := range caches {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			_, warm := tc.attach(t, st)
			warm()
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}

			row, lookup := tc.attach(t, st)
			lookup()
			if got, want := countsOf(row()), (tierCounts{MemMisses: 1, DiskHits: 1}); got != want {
				t.Fatalf("disk-served lookup: row %+v, want %+v", got, want)
			}
			lookup()
			if got, want := countsOf(row()), (tierCounts{MemHits: 1, MemMisses: 1, DiskHits: 1}); got != want {
				t.Fatalf("repeated lookup: row %+v, want %+v", got, want)
			}
			if name := row().Cache; name != tc.name {
				t.Fatalf("row names cache %q, want %q", name, tc.name)
			}
		})
	}
}
