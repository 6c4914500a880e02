package smt

import (
	"errors"

	"lisa/internal/faultinject"
)

// SATBatchLim answers a batch of boolean satisfiability queries through the
// result cache named by lim in one pass, returning parallel sat/error
// slices. Compared to looping over SATLim, a batch:
//
//   - classifies every query against the memory tier under a single lock
//     acquisition instead of one lock round trip per query, and
//   - coalesces duplicate formulas within the batch (and against solves
//     already in flight elsewhere in the process) onto a single solve —
//     followers wait for the leader instead of re-searching.
//
// The observable results are identical to issuing the queries one at a time
// in index order: verdicts are deterministic, budget errors surface exactly
// as they would uncached, and while fault injection is armed (or the cache
// is disabled) the batch degrades to per-query direct solves in index order
// so injected faults fire with the cadence a cold sequential run would see.
func SATBatchLim(fs []Formula, lim Limits) ([]bool, []error) {
	sats := make([]bool, len(fs))
	errs := make([]error, len(fs))
	qc := lim.Cache
	if qc == nil {
		qc = queryResults
	}
	bypass := !cacheEnabled.Load() || (faultinject.Armed() && !faultinject.StoreScoped())
	var keys []string
	var deferred []int // indices routed through the batched cache pass
	for i, f := range fs {
		stats.queries.Add(1)
		qc.queries.Add(1)
		if c, ok := f.(*Const); ok {
			sats[i] = c.Value
			continue
		}
		if bypass {
			sat, _, nodes, err := solveCore(f, lim)
			qc.solves.Add(1)
			qc.nodes.Add(uint64(nodes))
			sats[i], errs[i] = sat, err
			continue
		}
		keys = append(keys, f.String())
		deferred = append(deferred, i)
	}
	if len(keys) == 0 {
		return sats, errs
	}
	max := lim.MaxNodes
	if max <= 0 {
		max = DefaultMaxNodes
	}
	bs, berrs := qc.loadBatch(keys, max, func(k int) (bool, int, error) {
		sat, _, nodes, err := solveCore(fs[deferred[k]], lim)
		return sat, nodes, err
	})
	for k, i := range deferred {
		sats[i], errs[i] = bs[k], berrs[k]
	}
	return sats, errs
}

// loadBatch is load over a batch of keys: one lock acquisition classifies
// every key as a memory hit, a join on an in-flight solve (in this batch or
// elsewhere in the process), or a leader miss; leaders then solve once each
// in first-occurrence order, and duplicate keys within the batch collapse
// onto their leader's result. solve(k) must decide keys[k].
func (c *QueryCache) loadBatch(keys []string, maxNodes int, solve func(int) (bool, int, error)) ([]bool, []error) {
	n := len(keys)
	sats := make([]bool, n)
	errs := make([]error, n)

	// One pass under the lock: hits are served immediately; the first
	// occurrence of each unresolved key becomes (or joins) an in-flight
	// solve; later occurrences join their leader like any other follower.
	type slot struct { // a batch index and the in-flight solve answering it
		idx int
		fl  *inflightQuery
	}
	var leaders []slot // the indices that own their key's in-flight solve
	var joins []slot
	var memHits uint64
	c.mu.Lock()
	for i, key := range keys {
		if e, ok := c.mem.Get(key); ok && e.nodes <= maxNodes {
			memHits++
			c.countHit()
			sats[i] = e.sat
			continue
		}
		if fl, ok := c.inflight[key]; ok {
			joins = append(joins, slot{i, fl})
			continue
		}
		fl := &inflightQuery{done: make(chan struct{}), maxNodes: maxNodes}
		c.inflight[key] = fl
		leaders = append(leaders, slot{i, fl})
	}
	c.mu.Unlock()
	c.memHits.Add(memHits)
	c.memMisses.Add(uint64(n) - memHits)

	// Leaders: disk tier first, then a real solve, in first-occurrence
	// order — the order a sequential caller would have issued them.
	for _, l := range leaders {
		sats[l.idx], errs[l.idx] = c.lead(keys[l.idx], l.fl, func() (bool, int, error) { return solve(l.idx) })
	}

	// Followers: wait on their leader (possibly one of this batch's own)
	// and apply the same reuse rules as load.
	for _, f := range joins {
		<-f.fl.done
		sats[f.idx], errs[f.idx] = c.followInflight(keys[f.idx], f.fl, maxNodes, func() (bool, int, error) { return solve(f.idx) })
	}
	return sats, errs
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
		c.storeEntry(key, sat, nodes)
	}
	return sat, err
}
