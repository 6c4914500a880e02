// Package sched turns an engine assertion run into schedulable jobs: a
// planner decomposes Engine.Assert into independent (semantic × site)
// static jobs, per-semantic replay jobs, and structural jobs; a worker
// pool fans them out across goroutines and merges results back in registry
// order, byte-identical to the sequential run; a fingerprint cache serves
// unchanged jobs from previous runs; and a dirty-set computer maps a
// proposed change (diffutil + callgraph) to the jobs it can reach, so an
// incremental CI gate re-asserts only what the diff impacts.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lisa/internal/callgraph"
	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/minij"
	"lisa/internal/program"
	"lisa/internal/ticket"
)

// Options configure one scheduled assertion run.
type Options struct {
	// Workers is the pool width; 0 or negative means GOMAXPROCS.
	Workers int
	// Incremental computes a dirty set against Base and reports which jobs
	// the change impacts; unimpacted jobs are served from cache when
	// present.
	Incremental bool
	// Base is the pre-change system snapshot the dirty set diffs against
	// (the gate loads it once and shares it). Nil on an incremental run
	// means the base did not build, so the change cannot be localized and
	// everything is dirty.
	Base *program.Snapshot
}

// Stats describes what one scheduled run did: the job breakdown, how much
// executed versus served from cache, and the dirty-set classification.
type Stats struct {
	Workers int
	// Jobs counts planned jobs; Executed + CacheHits == Jobs.
	Jobs      int
	Executed  int
	CacheHits int
	// Per-kind breakdown of planned jobs.
	StructuralJobs int
	SiteJobs       int
	DynamicJobs    int
	// ImpactedJobs counts jobs the dirty set classified as reachable from
	// the change (equal to Jobs on non-incremental runs).
	ImpactedJobs int
	// Failures counts jobs that ended in a contained failure (panic,
	// timeout, budget); their semantics report INCONCLUSIVE.
	Failures int
	// DiskHits counts the cache hits served from the fingerprint cache's
	// disk tier (a subset of CacheHits; zero unless a store is attached).
	DiskHits uint64
	// SnapshotRestores counts program snapshots this run adopted from the
	// snapshot cache's disk tier instead of compiling, split by restore
	// path: decoded (the binary AST frame alone, the parse-free fast path)
	// vs deep-verified (sampled full re-parse comparison). They are deltas
	// of the engine's snapshot cache (core.Engine.Snapshots): exact when
	// the run owns that cache, and counting any concurrent run that shares
	// it.
	SnapshotRestores             uint64
	SnapshotRestoresDecoded      uint64
	SnapshotRestoresDeepVerified uint64
	// AssertedSemantics/SkippedSemantics partition the registry: a
	// semantic is skipped when every one of its jobs was served from
	// cache, i.e. the gate re-used its previous verdicts wholesale.
	AssertedSemantics int
	SkippedSemantics  int
	// DirtyMethods lists the changed methods (incremental runs).
	DirtyMethods []string
	// DirtyAll marks a change that could not be localized to method bodies.
	DirtyAll bool
}

// Scheduler executes assertion runs over a persistent fingerprint cache.
// One scheduler is meant to live as long as its registry does (e.g. for
// the lifetime of a CI gate), accumulating cache entries across runs up to
// the cache's bound.
type Scheduler struct {
	cache *Cache
}

// New returns a scheduler with an empty cache.
func New() *Scheduler { return newScheduler(maxEntries) }

// newScheduler returns a scheduler whose fingerprint cache holds at most
// capacity entries.
func newScheduler(capacity int) *Scheduler { return &Scheduler{cache: newCache(capacity)} }

// Cache exposes the scheduler's fingerprint cache (for stats).
func (s *Scheduler) Cache() *Cache { return s.cache }

type jobKind int

const (
	jobStructural jobKind = iota
	jobSite
	jobDynamic
)

// job is one contained piece of assertion work; the wave claims jobs in
// units (semPlan.units).
type job struct {
	kind jobKind
	// name is the stable job name shared with the sequential engine loop
	// (core.JobName*): panic containment and fault injection key on it.
	name string
	sem  *contract.Semantic
	// sr is the semantic report the job contributes to (structural jobs
	// produce their own).
	sr *core.SemanticReport
	// siteRep is the site under work (site jobs only), pre-seeded with the
	// execution-tree chains by the planner.
	siteRep *core.SiteReport
	// closure is the site job's read closure (for dirty-set impact).
	closure []*minij.Method
	fp      string
	// impacted records the dirty-set classification (true on cold runs).
	impacted bool

	cacheHit bool
	executed bool
	testsRun int
	// failure records the contained job failure, if any (site and dynamic
	// jobs; structural jobs carry theirs inside their own report). It is
	// attached to the semantic report at merge time, single-threaded, so
	// workers never append to a shared slice.
	failure *core.JobFailure
	// sites are the semantic's site jobs, whose paths a dynamic job's
	// replay is attributed to (dynamic jobs only).
	sites []*job
	// sitesLeft counts the semantic's site jobs still to finish: each site
	// job releases it, and the dynamic job waits for it before replaying.
	sitesLeft *sync.WaitGroup
}

// semPlan groups one semantic's jobs.
type semPlan struct {
	sem        *contract.Semantic
	sr         *core.SemanticReport
	structural *job
	sites      []*job
	dynamic    *job
}

// Assert runs every registered contract of e over source, scheduling the
// work across a worker pool and serving unchanged jobs from the cache. The
// merged report is byte-identical (per core.AssertReport.Render) to what
// the sequential Engine.Assert produces for the same inputs.
func (s *Scheduler) Assert(e *core.Engine, source string, tests []ticket.TestCase, opts Options) (*core.AssertReport, *Stats, error) {
	return s.assert(e, source, nil, tests, opts)
}

// AssertSnapshot is Assert over an already-loaded system snapshot (the CI
// gate's path: head and proposed change are loaded once and shared across
// every job of the run).
func (s *Scheduler) AssertSnapshot(e *core.Engine, snap *program.Snapshot, tests []ticket.TestCase, opts Options) (*core.AssertReport, *Stats, error) {
	return s.assert(e, "", snap, tests, opts)
}

// assert is Assert and AssertSnapshot: a nil snap is loaded from source,
// inside the run's compile timing and snapshot-restore accounting.
func (s *Scheduler) assert(e *core.Engine, source string, snap *program.Snapshot, tests []ticket.TestCase, opts Options) (*core.AssertReport, *Stats, error) {
	tm := core.StageTimings{}
	before := e.Snapshots.Stats()
	var err error
	if snap == nil {
		tm.Time("compile", func() { snap, err = e.LoadSnapshot(source) })
		if err != nil {
			return nil, nil, fmt.Errorf("system source: %w", err)
		}
	}
	actx, err := e.PrepareSnapshot(snap, tests, tm)
	if err != nil {
		return nil, nil, err
	}
	rep, stats, err := s.assertContext(e, actx, tm, opts)
	applySnapshotDelta(stats, e, before)
	return rep, stats, err
}

// applySnapshotDelta records the run's snapshot-restore split (how its
// snapshots were obtained: compiled, decoded from the disk tier, or
// deep-verified against source). A linked system+tests snapshot is never
// restored, so a warm run restores the system snapshot alone.
func applySnapshotDelta(stats *Stats, e *core.Engine, before program.CacheStats) {
	if stats == nil {
		return
	}
	d := e.Snapshots.Stats().Sub(before)
	stats.SnapshotRestores = d.Restores
	stats.SnapshotRestoresDecoded = d.RestoresDecoded
	stats.SnapshotRestoresDeepVerified = d.RestoresDeepVerified
}

func (s *Scheduler) assertContext(e *core.Engine, ctx *core.AssertContext, tm core.StageTimings, opts Options) (*core.AssertReport, *Stats, error) {
	rctx, cancel := e.Budget.RunContext(context.Background())
	defer cancel()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stats := &Stats{Workers: workers}
	diskBefore := s.cache.TierStats().DiskHits
	defer func() { stats.DiskHits = s.cache.TierStats().DiskHits - diskBefore }()

	var dirty *Dirty
	if opts.Incremental {
		tm.Time("dirty-set", func() {
			if opts.Base != nil {
				dirty = ComputeDirtySnapshots(opts.Base, ctx.Snapshot)
			} else {
				dirty = &Dirty{All: true}
			}
		})
		stats.DirtyAll = dirty.All
		stats.DirtyMethods = dirty.SortedMethods()
	}

	var plans []*semPlan
	tm.Time("plan", func() { plans = s.plan(e, ctx, dirty) })

	// One wave in plan order: each semantic's structural job or site
	// units, then its replay, which reads every site result of its
	// semantic and so waits for the site jobs still running.
	var wave [][]*job
	for _, sp := range plans {
		wave = append(wave, sp.units()...)
	}
	s.runWave(rctx, e, ctx, wave, workers, tm)

	// Deterministic merge: registry order, site order.
	report := &core.AssertReport{StageTimings: tm, StaticOnly: len(ctx.Tests) == 0}
	for _, sp := range plans {
		jobs := sp.jobs()
		executed := 0
		for _, j := range jobs {
			stats.Jobs++
			if j.impacted {
				stats.ImpactedJobs++
			}
			if j.cacheHit {
				stats.CacheHits++
			} else {
				stats.Executed++
			}
			if j.executed {
				executed++
			}
			switch j.kind {
			case jobStructural:
				stats.StructuralJobs++
			case jobSite:
				stats.SiteJobs++
			case jobDynamic:
				stats.DynamicJobs++
			}
		}
		if len(jobs) > 0 && executed == 0 {
			stats.SkippedSemantics++
		} else {
			stats.AssertedSemantics++
		}
		sr := sp.sr
		if sp.structural != nil {
			sr = sp.structural.sr
		}
		// Attach contained failures in jobs() order — the same order the
		// sequential loop records them in — single-threaded, after the pool
		// drained. Structural jobs already carry theirs inside their report.
		for _, j := range jobs {
			if j.failure != nil {
				sr.Failures = append(sr.Failures, j.failure)
			}
		}
		stats.Failures += len(sr.Failures)
		if sp.dynamic != nil {
			report.TestsRun += sp.dynamic.testsRun
		}
		report.Absorb(sr)
	}
	return report, stats, nil
}

// units splits the plan's jobs, in jobs() order, into the wave's claim
// units: a structural or replay job alone, and each site unit
// (core.SiteUnits).
func (sp *semPlan) units() [][]*job {
	var out [][]*job
	if sp.structural != nil {
		out = append(out, []*job{sp.structural})
	}
	out = append(out, core.SiteUnits(sp.sites, func(j *job) *contract.Site { return j.siteRep.Site })...)
	if sp.dynamic != nil {
		out = append(out, []*job{sp.dynamic})
	}
	return out
}

func (sp *semPlan) jobs() []*job {
	var out []*job
	if sp.structural != nil {
		out = append(out, sp.structural)
	}
	out = append(out, sp.sites...)
	if sp.dynamic != nil {
		out = append(out, sp.dynamic)
	}
	return out
}

// plan decomposes the registry into jobs with fingerprints; the expensive
// stages — path enumeration with SMT verdicts, structural scans, concolic
// replay — are deferred to the jobs. What plan computes per site itself
// (the matched site, its caller chains, its read closure and its
// fingerprint) is memoized on the analysis snapshot by sitePlans, so the
// snapshot cache bounds it and a warm plan re-matches, re-walks and
// re-hashes nothing (a cold one indexes the calls of every system
// statement once per context). Each run still builds fresh site reports
// and jobs from the memo, since jobs write paths, selected tests and
// coverage into them. The corpus digest comes from the context, computed
// once per run by PrepareSnapshot.
func (s *Scheduler) plan(e *core.Engine, ctx *core.AssertContext, dirty *Dirty) []*semPlan {
	// The system program's identity is the snapshot's canonical content
	// address — memoized, so a warm replay never re-renders the program.
	progFP := ctx.Snapshot.CanonHash()
	staticFP := staticEngineFP(e)
	// On a memo miss, site fingerprints cover every method in the site's
	// closure by its digest, which the snapshot took when it rendered.
	methodFP := ctx.SnapshotAll.MethodDigest
	var plans []*semPlan
	for _, sem := range e.Registry.All() {
		semFP := semFingerprint(sem)
		sp := &semPlan{sem: sem}
		if sem.Kind == contract.StructuralKind {
			sp.structural = &job{
				kind:     jobStructural,
				name:     core.JobNameStructural(sem.ID),
				sem:      sem,
				fp:       structuralFingerprint(semFP, progFP, ctx.CorpusDigest),
				impacted: dirty == nil || dirty.Any(),
			}
			plans = append(plans, sp)
			continue
		}
		sp.sr = &core.SemanticReport{Semantic: sem}
		var siteFPs []string
		anyImpacted := false
		sitesLeft := &sync.WaitGroup{}
		for _, memo := range sitePlans(e, ctx, sem, semFP, staticFP, methodFP) {
			site := *memo.site
			site.Semantic = sem
			siteRep := &core.SiteReport{Site: &site, Chains: memo.chains, TreeTruncated: memo.truncated}
			sp.sr.Sites = append(sp.sr.Sites, siteRep)
			j := &job{
				kind:      jobSite,
				name:      memo.name,
				sem:       sem,
				sr:        sp.sr,
				siteRep:   siteRep,
				closure:   memo.closure,
				fp:        memo.fp,
				impacted:  dirty == nil || dirty.impactsClosure(memo.closure),
				sitesLeft: sitesLeft,
			}
			sitesLeft.Add(1)
			siteFPs = append(siteFPs, j.fp)
			anyImpacted = anyImpacted || j.impacted
			sp.sites = append(sp.sites, j)
		}
		if len(ctx.Tests) > 0 {
			sp.dynamic = &job{
				kind:      jobDynamic,
				name:      core.JobNameDynamic(sem.ID),
				sem:       sem,
				sr:        sp.sr,
				fp:        dynamicFingerprint(e, sem, semFP, progFP, ctx.CorpusDigest, siteFPs),
				sites:     sp.sites,
				sitesLeft: sitesLeft,
				// Replay executes arbitrary reachable code, so any change
				// anywhere impacts it.
				impacted: dirty == nil || dirty.Any() || anyImpacted,
			}
		}
		plans = append(plans, sp)
	}
	return plans
}

// sitePlan is the run-independent part of one site job. It is memoized on
// the analysis snapshot, shared by every run that hits the memo — across
// engines too, when they share a snapshot cache — and read-only.
type sitePlan struct {
	// site is the matched site with Semantic unset: each run binds a copy
	// to its own semantic, because the description that test selection
	// reads is not part of the memo key.
	site      *contract.Site
	name      string
	chains    []callgraph.Path
	truncated bool
	closure   []*minij.Method
	fp        string
}

// sitePlans returns sem's site plans over ctx in match order, memoized on
// ctx.SnapshotAll. The key covers everything matching, chain enumeration,
// closures and site fingerprints read besides the analysis snapshot
// itself: the system snapshot (which classes are system code), the
// semantic's checker content and ID, and the static engine options.
// Occurrence numbering (occ) is per semantic, so it is part of the memo.
// A site's chains and closure depend only on its method, so the sites of
// one method share one execution tree, one closure and one rendering of
// the chains; the renderings are hashed into the fingerprints, not kept.
func sitePlans(e *core.Engine, ctx *core.AssertContext, sem *contract.Semantic, semFP, staticFP string, methodFP func(*minij.Method) string) []sitePlan {
	key := "sched.sites\x00" + ctx.Snapshot.Hash() + "\x00" + semFP + "\x00" + staticFP
	return program.Memo(ctx.SnapshotAll, key, func() []sitePlan {
		var plans []sitePlan
		occ := map[string]int{}
		trees := map[*minij.Method]*sitePlan{}
		rendered := map[*minij.Method][]string{}
		for i, site := range e.MatchSites(ctx, sem, nil) {
			tree := trees[site.Method]
			if tree == nil {
				siteRep := e.SiteChains(ctx, site, nil)
				tree = &sitePlan{chains: siteRep.Chains, truncated: siteRep.TreeTruncated, closure: siteClosure(ctx.Graph, siteRep)}
				trees[site.Method] = tree
				texts := make([]string, len(tree.chains))
				for k, ch := range tree.chains {
					texts[k] = ch.String()
				}
				rendered[site.Method] = texts
			}
			stmtKey := site.Method.FullName() + "\x00" + minij.CanonStmt(site.Stmt)
			fp := siteFingerprint(semFP, staticFP, site, tree.truncated, rendered[site.Method], tree.closure, occ[stmtKey], methodFP)
			occ[stmtKey]++
			bare := *site
			bare.Semantic = nil
			plans = append(plans, sitePlan{
				site:      &bare,
				name:      core.JobNameSite(sem.ID, i),
				chains:    tree.chains,
				truncated: tree.truncated,
				closure:   tree.closure,
				fp:        fp,
			})
		}
		return plans
	})
}

// runJob executes or cache-serves one job, recording stage timings into
// tm, which belongs to the goroutine running it. tops is the chain-top
// holder of the job's unit (nil for a job alone); a cache hit leaves it as
// it is. Each kind names its disk namespace, how a disk record becomes a
// memory entry, and how an entry is adopted into the job; serve looks up
// the memory tier, then the disk tier. Cache hits are re-anchored onto the current run's report
// objects so downstream stages and rendering always see current sites.
// Execution goes through the engine's contained job wrappers — the same
// decomposition the sequential loop uses — so a panicking or over-budget
// job degrades instead of killing the worker. Only an authoritative
// result is kept, so the next run retries the rest: a failed job's, and
// one a solver budget left INCONCLUSIVE.
func (s *Scheduler) runJob(rctx context.Context, e *core.Engine, ctx *core.AssertContext, j *job, tops *concolic.ChainTops, tm core.StageTimings) {
	c := s.cache
	switch j.kind {
	case jobStructural:
		if serve(c, structuralNamespace, j.fp, asIs[structuralRecord], func(rec *structuralRecord) (ok bool) {
			j.sr, ok = decodeStructural(rec, j.sem, ctx.ProgSys)
			return ok
		}) {
			j.cacheHit = true
			return
		}
		j.sr = e.StructuralJob(rctx, ctx, j.name, j.sem, tm)
		if len(j.sr.Failures) == 0 {
			rec := encodeStructural(j.sr)
			c.keep(structuralNamespace, j.fp, rec, func() any { return rec })
		}
	case jobSite:
		defer j.sitesLeft.Done()
		if serve(c, siteNamespace, j.fp, decodeSite, func(ent *siteEntry) bool {
			j.siteRep.Paths, j.siteRep.TreeTruncated = clonePaths(ent.paths), ent.truncated
			return true
		}) {
			j.cacheHit = true
			return
		}
		j.failure = e.UnitSiteJob(rctx, ctx, j.name, j.siteRep, tops, tm)
		if j.failure == nil && !starved(j.siteRep.Paths) {
			ent := &siteEntry{paths: clonePaths(j.siteRep.Paths), truncated: j.siteRep.TreeTruncated}
			c.keep(siteNamespace, j.fp, ent, func() any { return encodeSite(j.siteRep) })
		}
	case jobDynamic:
		j.sitesLeft.Wait()
		// A site job that failed in this run left its site without paths,
		// and one a solver budget starved was not kept, so the replay
		// attributes to paths no cached site result backs: it runs
		// uncached, neither served from nor stored in the cache.
		cacheable := true
		for _, sj := range j.sites {
			cacheable = cacheable && sj.failure == nil && !starved(sj.siteRep.Paths)
		}
		if cacheable && serve(c, dynamicNamespace, j.fp, asIs[dynOverlay], func(ov *dynOverlay) bool {
			applyOverlay(j.sr, ov)
			j.testsRun = ov.TestsRun
			return true
		}) {
			j.cacheHit = true
			return
		}
		j.testsRun, j.failure = e.DynamicJob(rctx, ctx, j.name, j.sr, tm)
		if j.failure == nil && cacheable {
			if ov := extractOverlay(j.sr, j.testsRun); !ov.starved() {
				c.keep(dynamicNamespace, j.fp, ov, func() any { return ov })
			}
		}
	}
	j.executed = true
}

// starved reports whether a solver budget left any of a site's paths
// undecided.
func starved(paths []*core.PathReport) bool {
	for _, p := range paths {
		if p.Verdict == concolic.VerdictInconclusive {
			return true
		}
	}
	return false
}

// jobsPerWorker is the smallest share of a wave worth a goroutine of its
// own. A corpus job runs in well under a millisecond, so handing a few to
// a second goroutine costs more than it saves: spreading every wave, down
// to a gate's three or four jobs, over two goroutines made the daemon's
// gate latency worse under concurrent clients, which already keep every
// core busy. At 32 every corpus gate runs inline, and a run with hundreds
// of site jobs still spreads over the whole pool.
const jobsPerWorker = 32

// runWave runs a wave's claim units (semPlan.units) on min(workers,
// ⌈jobs/jobsPerWorker⌉) goroutines, where jobs counts the jobs of every
// unit, the calling goroutine among them, so a wave of at most
// jobsPerWorker jobs, or width 1, runs inline in plan order. Each
// goroutine claims the next unclaimed unit until none is left and runs its
// jobs in order, timing its stages into a map of its own (the calling
// goroutine's is tm); the others' maps are merged into tm after the wave.
// A site unit's jobs share the chain-top holder core.UnitTops gives the
// unit's run; they never run at once, so no goroutine shares it with
// another. Units are claimed in index order, so a replay job, which waits
// for its semantic's earlier site jobs, waits only for jobs already
// claimed, and the wait ends.
func (s *Scheduler) runWave(rctx context.Context, e *core.Engine, ctx *core.AssertContext, units [][]*job, workers int, tm core.StageTimings) {
	var next atomic.Int64
	work := func(own core.StageTimings) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(units) {
				return
			}
			tops := core.UnitTops(len(units[i]))
			for _, j := range units[i] {
				s.runJob(rctx, e, ctx, j, tops, own)
			}
		}
	}
	jobs := 0
	for _, u := range units {
		jobs += len(u)
	}
	width := min(workers, (jobs+jobsPerWorker-1)/jobsPerWorker)
	helpers := make([]core.StageTimings, max(width-1, 0))
	var wg sync.WaitGroup
	for i := range helpers {
		helpers[i] = core.StageTimings{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(helpers[i])
		}()
	}
	work(tm)
	wg.Wait()
	for _, h := range helpers {
		tm.AddAll(h)
	}
}
