package sched

import (
	"sync"

	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/lru"
	"lisa/internal/minij"
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
// re-executing them. Entries are immutable once stored: results are deep-
// copied on put and on get, so report mutation (the dynamic overlay) never
// corrupts cached state. All methods are safe for concurrent use by the
// worker pool.
//
// The memory tier is one LRU over every job kind: fingerprints hash their
// kind in, so site, structural, and replay results share the key space
// without colliding. The embedded Tier is an optional on-disk tier
// (SetStore) that extends the cache across processes: memory misses
// consult the store, decoded records are re-anchored onto the current
// run's program and promoted into memory, and successful executions write
// through (persist.go).
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

// lookup serves fp from the memory tier as a T, counting the hit or miss.
// Caller holds c.mu.
func lookup[T any](c *Cache, fp string) (T, bool) {
	v, _ := c.mem.Get(fp)
	t, ok := v.(T)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return t, ok
}

// put stores an already-copied result under fp.
func (c *Cache) put(fp string, v any) {
	c.mu.Lock()
	c.mem.Put(fp, v)
	c.mu.Unlock()
}

// siteEntry is the cached static result of one (semantic × site) job. The
// site identity itself is not stored: a hit is re-anchored onto the current
// run's site object, so dynamic replay and report rendering always see the
// current program.
type siteEntry struct {
	paths     []*core.PathReport
	truncated bool
}

// getSite serves a cached static site result as a deep copy: fresh
// PathReports, ready for dynamic attribution.
func (c *Cache) getSite(fp string) (*siteEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := lookup[*siteEntry](c, fp)
	if !ok {
		return nil, false
	}
	return &siteEntry{paths: clonePaths(ent.paths), truncated: ent.truncated}, true
}

// putSite stores a just-computed static site result.
func (c *Cache) putSite(fp string, siteRep *core.SiteReport) {
	c.put(fp, &siteEntry{paths: clonePaths(siteRep.Paths), truncated: siteRep.TreeTruncated})
}

// getStructural serves a cached structural result, re-anchored onto prog
// like a disk hit: the entry is the record the disk tier writes, so it
// holds no AST, and a hit renders the current program's positions.
func (c *Cache) getStructural(fp string, sem *contract.Semantic, prog *minij.Program) (*core.SemanticReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := lookup[*structuralRecord](c, fp)
	if !ok {
		return nil, false
	}
	return decodeStructural(rec, sem, prog)
}

// putStructural stores a structural result as its record.
func (c *Cache) putStructural(fp string, sr *core.SemanticReport) {
	c.put(fp, encodeStructural(sr))
}

// dynOverlay is the cached dynamic result of one per-semantic replay job:
// selected tests and per-path coverage/verdict attributions, addressed by
// (site index, path index). The addressing is sound because the dynamic
// fingerprint covers every site fingerprint — a hit implies the static
// structure is identical. It is also the disk tier's fp.dyn.v2 record, as
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

// getDynamic serves a cached replay overlay. The overlay is shared with
// the cache and must not be written: applyOverlay copies every slice and
// map out of it into the report.
func (c *Cache) getDynamic(fp string) (*dynOverlay, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return lookup[*dynOverlay](c, fp)
}

// putDynamic stores a replay overlay that nothing else holds: one
// extractOverlay built from a finished semantic report, or a record just
// decoded from the disk tier.
func (c *Cache) putDynamic(fp string, ov *dynOverlay) {
	c.put(fp, ov)
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
