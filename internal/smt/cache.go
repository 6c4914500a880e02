package smt

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lisa/internal/lru"
	"lisa/internal/store"
)

// SolverStats is a snapshot of the process-wide solver counters.
type SolverStats struct {
	// Queries counts public satisfiability queries (SATLim and SolveLim;
	// ImpliesLim counts its underlying SATLim call).
	Queries uint64 `json:"queries"`
	// CacheHits / CacheMisses / CacheEvictions describe the boolean result
	// caches. Queries that bypass a cache (model queries, queries that name
	// none, fault injection armed) count in neither bucket.
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// Solves counts DPLL searches actually run; Nodes the search-tree nodes
	// across all of them.
	Solves uint64 `json:"solves"`
	Nodes  uint64 `json:"nodes"`
	// SolveTime is wall clock inside the solver; TheoryTime the portion
	// spent in incremental theory asserts.
	SolveTime  time.Duration `json:"solve_time_ns"`
	TheoryTime time.Duration `json:"theory_time_ns"`
}

var stats struct {
	queries, hits, misses, evictions, solves, nodes atomic.Uint64
	solveNS, theoryNS                               atomic.Int64
}

// Stats returns a snapshot of the process-wide solver counters. These count
// every query and solve, cached or not, across every cache instance (the
// per-instance QueryCacheStats carve the cached events up by engine), so
// existing baselines — notably the committed lisabench counter snapshots —
// stay comparable.
func Stats() SolverStats {
	return SolverStats{
		Queries:        stats.queries.Load(),
		CacheHits:      stats.hits.Load(),
		CacheMisses:    stats.misses.Load(),
		CacheEvictions: stats.evictions.Load(),
		Solves:         stats.solves.Load(),
		Nodes:          stats.nodes.Load(),
		SolveTime:      time.Duration(stats.solveNS.Load()),
		TheoryTime:     time.Duration(stats.theoryNS.Load()),
	}
}

// DefaultQueryCacheCap bounds a solver result cache's memory tier. Corpus
// runs issue a few thousand distinct queries; the cap is a memory backstop,
// not a tuning knob.
const DefaultQueryCacheCap = 4096

// queryNamespace versions the solver records in the on-disk store; bump it
// when the record encoding changes so stale stores read as misses.
const queryNamespace = "smt.v1"

// QueryCache is a bounded LRU of decided boolean queries keyed by the
// formula's canonical render (TestRenderParseRoundTrip pins down that equal
// renders imply equivalent formulas, so the render is a sound key), with an
// optional on-disk tier behind it (the embedded Tier; SetStore). It has
// singleflight semantics: concurrent misses on one key run a single solve,
// and followers wait on the leader instead of duplicating work.
//
// A query uses a cache only when its Limits.Cache names one. Engines that
// need exact per-run accounting own an instance; DefaultQueryCache is the
// one instance shared across a process, by name.
type QueryCache struct {
	*store.Tier

	mu       sync.Mutex
	mem      *lru.Cache[string, cacheEntry]
	inflight map[string]*inflightQuery

	queries, hits, misses, solves, nodes atomic.Uint64
	// memHits and memMisses count memory-tier outcomes alone, for the tier
	// row; hits and misses also count queries an in-flight leader or the
	// disk tier answered.
	memHits, memMisses atomic.Uint64
}

// QueryCacheStats is a snapshot of one QueryCache instance's counters —
// exact for the engine that owns the instance, regardless of what the rest
// of the process is doing.
type QueryCacheStats struct {
	Queries    uint64 `json:"queries"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Solves     uint64 `json:"solves"`
	Nodes      uint64 `json:"nodes"`
	DiskHits   uint64 `json:"disk_hits"`
	DiskMisses uint64 `json:"disk_misses"`
	DiskWrites uint64 `json:"disk_writes"`
}

// Sub returns the field-wise delta s − base.
func (s QueryCacheStats) Sub(base QueryCacheStats) QueryCacheStats {
	return QueryCacheStats{
		Queries:    s.Queries - base.Queries,
		Hits:       s.Hits - base.Hits,
		Misses:     s.Misses - base.Misses,
		Evictions:  s.Evictions - base.Evictions,
		Solves:     s.Solves - base.Solves,
		Nodes:      s.Nodes - base.Nodes,
		DiskHits:   s.DiskHits - base.DiskHits,
		DiskMisses: s.DiskMisses - base.DiskMisses,
		DiskWrites: s.DiskWrites - base.DiskWrites,
	}
}

// Add returns the field-wise sum s + o (aggregating per-engine handles).
func (s QueryCacheStats) Add(o QueryCacheStats) QueryCacheStats {
	return QueryCacheStats{
		Queries:    s.Queries + o.Queries,
		Hits:       s.Hits + o.Hits,
		Misses:     s.Misses + o.Misses,
		Evictions:  s.Evictions + o.Evictions,
		Solves:     s.Solves + o.Solves,
		Nodes:      s.Nodes + o.Nodes,
		DiskHits:   s.DiskHits + o.DiskHits,
		DiskMisses: s.DiskMisses + o.DiskMisses,
		DiskWrites: s.DiskWrites + o.DiskWrites,
	}
}

// cacheEntry remembers the verdict and how many search nodes deciding it
// consumed. Hits are only served to callers whose node budget covers that
// count, so budget-limited callers behave byte-identically warm or cold.
type cacheEntry struct {
	sat   bool
	nodes int
}

type inflightQuery struct {
	done chan struct{}
	// maxNodes is the leader's node budget. When the leader fails with
	// ErrBudget, a follower whose own budget is no larger would
	// deterministically exhaust on the same node, so the error propagates
	// to it without re-running the doomed search.
	maxNodes int
	sat      bool
	nodes    int
	err      error
}

// NewQueryCache returns an empty solver result cache; capacity <= 0 means
// DefaultQueryCacheCap.
func NewQueryCache(capacity int) *QueryCache {
	if capacity <= 0 {
		capacity = DefaultQueryCacheCap
	}
	c := &QueryCache{
		mem:      lru.New[string, cacheEntry](capacity),
		inflight: map[string]*inflightQuery{},
	}
	c.Tier = store.NewTier("solver", c.memTier, queryNamespace)
	return c
}

// memTier fills the solver cache's memory-tier fields into its tier row.
func (c *QueryCache) memTier(ts *store.TierStats) {
	ts.MemHits, ts.MemMisses = c.memHits.Load(), c.memMisses.Load()
}

// Stats snapshots this instance's counters.
func (c *QueryCache) Stats() QueryCacheStats {
	c.mu.Lock()
	evictions := c.mem.Evictions()
	c.mu.Unlock()
	ts := c.TierStats()
	return QueryCacheStats{
		Queries:    c.queries.Load(),
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  evictions,
		Solves:     c.solves.Load(),
		Nodes:      c.nodes.Load(),
		DiskHits:   ts.DiskHits,
		DiskMisses: ts.DiskMisses,
		DiskWrites: ts.DiskWrites,
	}
}

// Reset drops every cached entry from the memory tier (the disk tier is
// shared and stays). Counters are kept; in-flight solves complete and
// store into the emptied cache.
func (c *QueryCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem.Clear()
}

// queryResults is the process-wide instance: core.New's engines, ticket
// inference and the experiment harnesses name it.
var queryResults = NewQueryCache(DefaultQueryCacheCap)

// DefaultQueryCache returns the process-wide cache instance.
func DefaultQueryCache() *QueryCache { return queryResults }

// load returns the cached verdict for key, joining or becoming the leader
// of an in-flight solve on miss. A cached or in-flight result is only
// reused when its node count fits maxNodes; otherwise this caller re-solves
// under its own limits so ErrBudget surfaces exactly as it would uncached.
func (c *QueryCache) load(key string, maxNodes int, solve func() (bool, int, error)) (bool, error) {
	c.mu.Lock()
	if e, ok := c.mem.Get(key); ok && e.nodes <= maxNodes {
		c.mu.Unlock()
		c.memHits.Add(1)
		c.countHit()
		return e.sat, nil
	}
	c.memMisses.Add(1)
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-fl.done
		return c.followInflight(key, fl, maxNodes, solve)
	}
	fl := &inflightQuery{done: make(chan struct{}), maxNodes: maxNodes}
	c.inflight[key] = fl
	c.mu.Unlock()
	return c.lead(key, fl, solve)
}

// followInflight resolves a follower against a finished in-flight solve:
// reuse the leader's verdict when it fits this caller's budget, propagate a
// budget exhaustion the follower's own (equal or smaller) budget would have
// reproduced, and otherwise re-solve under the follower's own limits.
func (c *QueryCache) followInflight(key string, fl *inflightQuery, maxNodes int, solve func() (bool, int, error)) (bool, error) {
	if fl.err == nil && fl.nodes <= maxNodes {
		c.countHit()
		return fl.sat, nil
	}
	c.countMiss()
	if fl.err != nil && errors.Is(fl.err, ErrBudget) && maxNodes <= fl.maxNodes {
		// The search is deterministic: a budget no larger than the
		// leader's exhausts on exactly the same node, so every waiter gets
		// the identical ErrBudget without duplicating the doomed search.
		return fl.sat, fl.err
	}
	// The leader degraded some other way (cancellation) or needed more
	// nodes than we may spend; solve under our own limits.
	sat, nodes, err := c.runSolve(solve)
	if err == nil {
		c.mu.Lock()
		c.storeEntry(key, sat, nodes)
		c.mu.Unlock()
	}
	return sat, err
}

// lead resolves a key whose in-flight entry fl this caller owns: the disk
// tier first, then a real solve, publishing the outcome to the followers
// either way. A solved verdict is also written through to the disk tier.
func (c *QueryCache) lead(key string, fl *inflightQuery, solve func() (bool, int, error)) (bool, error) {
	if sat, nodes, ok := c.diskGet(key, fl.maxNodes); ok {
		fl.sat, fl.nodes = sat, nodes
		c.publish(key, fl)
		c.countHit()
		return sat, nil
	}
	c.countMiss()
	fl.sat, fl.nodes, fl.err = c.runSolve(solve)
	c.publish(key, fl)
	if fl.err == nil {
		c.diskPut(key, fl.sat, fl.nodes)
	}
	return fl.sat, fl.err
}

// publish retires a finished in-flight solve and, if it decided its query,
// stores the verdict in the memory tier in the same critical section; only
// then are the followers released. A query that arrives at any moment finds
// the in-flight entry or the verdict, never neither, so a decided query is
// solved once however its askers interleave.
func (c *QueryCache) publish(key string, fl *inflightQuery) {
	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.storeEntry(key, fl.sat, fl.nodes)
	}
	c.mu.Unlock()
	close(fl.done)
}

// countHit and countMiss charge one answered or unanswered query to this
// cache and to the process-wide counters.
func (c *QueryCache) countHit() {
	stats.hits.Add(1)
	c.hits.Add(1)
}

func (c *QueryCache) countMiss() {
	stats.misses.Add(1)
	c.misses.Add(1)
}

// runSolve runs one uncached solve on this cache's behalf, charging the
// per-instance solve counters.
func (c *QueryCache) runSolve(solve func() (bool, int, error)) (bool, int, error) {
	sat, nodes, err := solve()
	c.solves.Add(1)
	c.nodes.Add(uint64(nodes))
	return sat, nodes, err
}

// storeEntry inserts a decided query into the memory tier, evicting from
// the LRU tail past capacity; c.mu must be held. A resident key keeps its
// verdict and is only promoted.
func (c *QueryCache) storeEntry(key string, sat bool, nodes int) {
	if _, ok := c.mem.Get(key); ok {
		return
	}
	if c.mem.Put(key, cacheEntry{sat: sat, nodes: nodes}) {
		stats.evictions.Add(1)
	}
}

// diskKey addresses a query in the store: the render is content, so its
// digest is the address.
func diskKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// diskGet serves a persisted verdict from the disk tier. A record is a hit
// only when it decodes and its node count fits maxNodes: a verdict this
// caller's budget could not have reached is re-solved, so ErrBudget
// surfaces as it would in a cold process.
func (c *QueryCache) diskGet(key string, maxNodes int) (sat bool, nodes int, ok bool) {
	if !c.Attached() {
		return false, 0, false
	}
	ok = c.Tier.Get(queryNamespace, diskKey(key), func(raw []byte) bool {
		var satInt int
		if _, err := fmt.Sscanf(string(raw), "%d %d", &satInt, &nodes); err != nil || satInt > 1 || satInt < 0 || nodes < 0 {
			return false
		}
		sat = satInt == 1
		return nodes <= maxNodes
	})
	return sat, nodes, ok
}

// diskPut persists a decided verdict (write-behind; errors are invisible —
// the disk tier is an optimization, never a source of truth).
func (c *QueryCache) diskPut(key string, sat bool, nodes int) {
	if !c.Attached() {
		return
	}
	satInt := 0
	if sat {
		satInt = 1
	}
	c.Tier.Put(queryNamespace, diskKey(key), []byte(fmt.Sprintf("%d %d", satInt, nodes)))
}
