package sched

import (
	"encoding/json"
	"sync"

	"lisa/internal/concolic"
	"lisa/internal/core"
	"lisa/internal/lru"
	"lisa/internal/store"
)

// maxEntries bounds the fingerprint cache. It sits above one full plan of
// the 10,000-site E-P1 system plus its change, so a paper-scale
// incremental gate stays warm, while a daemon gating an endless stream of
// distinct changes stops growing: each gate re-touches the entries it
// reuses, and the least recently used — results of versions no later
// change revisits — are evicted.
const maxEntries = 1 << 14

// Cache is the fingerprint-keyed result store. It survives across Assert
// runs of one Scheduler, so a warm run serves unchanged jobs without
// re-executing them. Entries are immutable once stored: a result is copied
// into its entry when kept and out of it when served, so report mutation
// (the dynamic overlay) never corrupts cached state. All methods are safe
// for concurrent use by the worker pool.
//
// The memory tier is one LRU over every job kind: fingerprints hash their
// kind in, so site, structural, and replay results share the key space
// without colliding. The embedded Tier is an optional on-disk tier
// (SetStore) that extends the cache across processes: memory misses
// consult the store, decoded records are re-anchored onto the current
// run's program and promoted into memory, and successful executions write
// through. serve and keep are that flow for every job kind; persist.go
// holds the records.
type Cache struct {
	*store.Tier

	mu     sync.Mutex
	mem    *lru.Cache[string, any] // *siteEntry, *structuralRecord, or *dynOverlay
	hits   int
	misses int
}

func newCache(capacity int) *Cache {
	c := &Cache{mem: lru.New[string, any](capacity)}
	c.Tier = store.NewTier("fingerprint", c.memTier, siteNamespace, structuralNamespace, dynamicNamespace)
	return c
}

// memTier fills the fingerprint cache's memory-tier fields into its tier
// row.
func (c *Cache) memTier(ts *store.TierStats) {
	c.mu.Lock()
	ts.MemHits, ts.MemMisses = uint64(c.hits), uint64(c.misses)
	c.mu.Unlock()
}

// CacheStats is a point-in-time cache counter snapshot. The disk counters
// stay zero until a store is attached.
type CacheStats struct {
	Entries int
	Hits    int
	Misses  int
	// Evictions counts entries the bound pushed out, least recently used
	// first.
	Evictions uint64
	// Disk-tier counters: hits decoded and re-anchored from the store,
	// misses (absent, stale, or unanchorable records), and write-throughs.
	DiskHits   uint64
	DiskMisses uint64
	DiskWrites uint64
}

// Stats returns cumulative counters and the entry count.
func (c *Cache) Stats() CacheStats {
	ts := c.TierStats()
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    c.mem.Len(),
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.mem.Evictions(),
		DiskHits:   ts.DiskHits,
		DiskMisses: ts.DiskMisses,
		DiskWrites: ts.DiskWrites,
	}
}

// serve answers one job from the cache: the memory tier, then the disk
// tier. A resident entry of type M is a memory hit; use adopts it into the
// job after the lock is released, and entries are never written, so use
// copies what the job will change. With a store attached, a memory miss
// unmarshals the disk record as an R, fromDisk turns it into a memory
// entry and use adopts that; a failure at any step is a disk miss (the CRC
// layer below already rejected torn or corrupt frames, so a record that
// does not unmarshal is a version skew). An adopted disk entry is promoted
// into the memory tier.
func serve[M, R any](c *Cache, ns, fp string, fromDisk func(*R) (M, bool), use func(M) bool) bool {
	c.mu.Lock()
	v, _ := c.mem.Get(fp)
	ent, ok := v.(M)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if ok && use(ent) {
		return true
	}
	if !c.Tier.Get(ns, fp, func(raw []byte) bool {
		var rec R
		if json.Unmarshal(raw, &rec) != nil {
			return false
		}
		ent, ok = fromDisk(&rec)
		return ok && use(ent)
	}) {
		return false
	}
	c.mu.Lock()
	c.mem.Put(fp, ent)
	c.mu.Unlock()
	return true
}

// asIs is fromDisk for a job kind whose memory entry is its disk record.
func asIs[R any](rec *R) (*R, bool) { return rec, true }

// keep stores a just-computed result that nothing else holds: mem in the
// memory tier and, only when a store is attached, rec's record in the disk
// tier, so a record is encoded only when there is a store to write it to.
func (c *Cache) keep(ns, fp string, mem any, rec func() any) {
	c.mu.Lock()
	c.mem.Put(fp, mem)
	c.mu.Unlock()
	if !c.Attached() {
		return
	}
	if raw, err := json.Marshal(rec()); err == nil {
		c.Tier.Put(ns, fp, raw)
	}
}

// siteEntry is the cached static result of one (semantic × site) job. The
// site identity itself is not stored: a hit is re-anchored onto the current
// run's site object, so dynamic replay and report rendering always see the
// current program.
type siteEntry struct {
	paths     []*core.PathReport
	truncated bool
}

// dynOverlay is the cached dynamic result of one per-semantic replay job:
// selected tests and per-path coverage/verdict attributions, addressed by
// (site index, path index). The addressing is sound because the dynamic
// fingerprint covers every site fingerprint — a hit implies the static
// structure is identical. It is also the disk tier's fp.dyn.v3 record, as
// JSON.
type dynOverlay struct {
	TestsRun int       `json:"testsRun"`
	Sites    []siteDyn `json:"sites"`
}

type siteDyn struct {
	Selected []string  `json:"selected,omitempty"`
	Paths    []pathDyn `json:"paths"`
}

type pathDyn struct {
	CoveredBy      []string                    `json:"coveredBy,omitempty"`
	DynVerdicts    map[string]concolic.Verdict `json:"dynVerdicts,omitempty"`
	PostViolatedBy []string                    `json:"postViolatedBy,omitempty"`
}

// starved reports whether a solver budget left any replayed hit's dynamic
// verdict undecided.
func (ov *dynOverlay) starved() bool {
	for _, s := range ov.Sites {
		for _, p := range s.Paths {
			for _, v := range p.DynVerdicts {
				if v == concolic.VerdictInconclusive {
					return true
				}
			}
		}
	}
	return false
}

// --- deep copies ----------------------------------------------------------

func clonePaths(paths []*core.PathReport) []*core.PathReport {
	out := make([]*core.PathReport, len(paths))
	for i, p := range paths {
		out[i] = &core.PathReport{
			Static:          p.Static, // immutable after enumeration
			Verdict:         p.Verdict,
			CoveredBy:       cloneStrings(p.CoveredBy),
			DynamicVerdicts: cloneVerdicts(p.DynamicVerdicts),
			PostViolatedBy:  cloneStrings(p.PostViolatedBy),
		}
	}
	return out
}

// extractOverlay lifts the dynamic attributions out of a replayed semantic
// report.
func extractOverlay(sr *core.SemanticReport, testsRun int) *dynOverlay {
	ov := &dynOverlay{TestsRun: testsRun, Sites: make([]siteDyn, len(sr.Sites))}
	for i, siteRep := range sr.Sites {
		s := siteDyn{Selected: cloneStrings(siteRep.SelectedTests), Paths: make([]pathDyn, len(siteRep.Paths))}
		for j, p := range siteRep.Paths {
			s.Paths[j] = pathDyn{
				CoveredBy:      cloneStrings(p.CoveredBy),
				DynVerdicts:    cloneVerdicts(p.DynamicVerdicts),
				PostViolatedBy: cloneStrings(p.PostViolatedBy),
			}
		}
		ov.Sites[i] = s
	}
	return ov
}

// applyOverlay writes a cached replay overlay back onto a semantic report
// whose static structure matches (guaranteed by the dynamic fingerprint).
func applyOverlay(sr *core.SemanticReport, ov *dynOverlay) {
	for i, siteRep := range sr.Sites {
		if i >= len(ov.Sites) {
			break
		}
		s := ov.Sites[i]
		siteRep.SelectedTests = cloneStrings(s.Selected)
		for j, p := range siteRep.Paths {
			if j >= len(s.Paths) {
				break
			}
			p.CoveredBy = cloneStrings(s.Paths[j].CoveredBy)
			p.DynamicVerdicts = cloneVerdicts(s.Paths[j].DynVerdicts)
			p.PostViolatedBy = cloneStrings(s.Paths[j].PostViolatedBy)
		}
	}
}

func cloneStrings(xs []string) []string {
	if xs == nil {
		return nil
	}
	return append([]string(nil), xs...)
}

// cloneVerdicts copies a verdict map; an empty one copies to nil.
func cloneVerdicts(m map[string]concolic.Verdict) map[string]concolic.Verdict {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]concolic.Verdict, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
