package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"time"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// stressSites is the size of the stress-cold system.
const stressSites = 160

// stressFeatures is the number of independent service replicas, one
// contract each, in the stress system.
const stressFeatures = 8

// stressSystem is an E-P1-shaped synthetic system: feature replicas whose
// handlers each guard two call sites of the contract's target, every
// handler at the bottom of a caller chain of 2 to 4 hops, each hop calling
// the next on both sides of a branch. The seed deals the chain lengths out
// to the handlers; every length is dealt equally often, so systems of one
// size do the same amount of work whatever the seed.
type stressSystem struct {
	src   string
	spec  string
	tests []ticket.TestCase
	sites int
}

func newStressSystem(rng *rand.Rand, sites int) *stressSystem {
	handlers := max(1, sites/(2*stressFeatures))
	hops := make([]int, stressFeatures*handlers)
	for i := range hops {
		hops[i] = 2 + i%3
	}
	rng.Shuffle(len(hops), func(i, j int) { hops[i], hops[j] = hops[j], hops[i] })
	var sb, sp strings.Builder
	entry0 := ""
	for f := 0; f < stressFeatures; f++ {
		fmt.Fprintf(&sb, `
class Session%[1]d {
	bool closing;
}

class DataTree%[1]d {
	map nodes;

	void createEphemeral(string path, Session%[1]d owner) {
		nodes.put(path, owner);
	}
}

class Prep%[1]d {
	DataTree%[1]d tree;
`, f)
		for h := 0; h < handlers; h++ {
			fmt.Fprintf(&sb, `
	void handle%[2]d(string path, Session%[1]d s, int mode) {
		if (s == null || s.closing) {
			throw "KeeperException";
		}
		if (mode > %[3]d) {
			tree.createEphemeral(path, s);
		} else {
			tree.createEphemeral(path, s);
		}
	}
`, f, h, rng.IntN(4))
			callee := fmt.Sprintf("handle%d", h)
			for k := 1; k <= hops[f*handlers+h]; k++ {
				name := fmt.Sprintf("hop%d_%d", h, k)
				fmt.Fprintf(&sb, `
	void %[1]s(string path, Session%[2]d s, int mode) {
		if (mode > %[3]d) {
			%[4]s(path, s, mode);
		} else {
			%[4]s(path, s, mode);
		}
	}
`, name, f, rng.IntN(4), callee)
				callee = name
			}
			if f == 0 && h == 0 {
				entry0 = callee
			}
		}
		sb.WriteString("}\n")
		fmt.Fprintf(&sp, `
rule stress-eph-%[1]d
description: ephemeral create requires a live session (stress replica %[1]d)
target: DataTree%[1]d.createEphemeral
bind: s = arg 1
require: s != null && s.closing == false
`, f)
	}
	test := ticket.TestCase{
		Name:        "StressTest.liveCreate",
		Description: "create on a live session reaches the tree",
		Class:       "StressTest",
		Method:      "liveCreate",
		Source: fmt.Sprintf(`
class StressTest {
	static void liveCreate() {
		Prep0 p = new Prep0();
		p.tree = new DataTree0();
		p.tree.nodes = newMap();
		Session0 s = new Session0();
		s.closing = false;
		p.%s("/live", s, 1);
		assertTrue(p.tree.nodes.has("/live"), "node created");
	}
}
`, entry0),
	}
	return &stressSystem{src: sb.String(), spec: sp.String(), tests: []ticket.TestCase{test}, sites: stressFeatures * handlers * 2}
}

// engine returns a fresh engine over the system's contracts with private
// snapshot and solver caches: a cold process's state.
func (s *stressSystem) engine() (*core.Engine, error) {
	sems, err := contract.ParseSpec(s.spec)
	if err != nil {
		return nil, err
	}
	e := core.New()
	e.Snapshots = program.NewCache(0)
	e.Solver = smt.NewQueryCache(0)
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// check verifies a stress report: every site verified, nothing violated
// or failed.
func (s *stressSystem) check(rep *core.AssertReport) error {
	c := rep.Counts
	if c.Verified != s.sites || c.Violations != 0 || c.Failures != 0 {
		return fmt.Errorf("stress report: verified=%d violations=%d failures=%d, want verified=%d and no violations or failures",
			c.Verified, c.Violations, c.Failures, s.sites)
	}
	return nil
}

// coldAssert runs one cold scheduled assertion at the default width.
func (s *stressSystem) coldAssert() (*core.AssertReport, *sched.Stats, *core.Engine, *sched.Scheduler, error) {
	e, err := s.engine()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sc := sched.New()
	rep, st, err := sc.Assert(e, s.src, s.tests, sched.Options{})
	return rep, st, e, sc, err
}

// stressOpEnv, set to "<seed> <sites>", makes the benchmark process run
// one stress-cold operation and print its stressOp as JSON instead of
// anything else. The workload runs every cold assertion in a process of
// its own, so that a process's peak RSS and retained heap are those of
// one assertion and their medians over the operations are steady; a
// peak taken over a whole run of in-process assertions is set by its one
// worst garbage-collection overshoot.
const stressOpEnv = "LISA_BENCH_STRESS_OP"

// stressOp is what one stress-cold operation reports.
type stressOp struct {
	NS     int64   `json:"ns"` // the assertion's wall time
	Err    string  `json:"err,omitempty"`
	HeapMB float64 `json:"heap_mb"` // live heap held by the engine, scheduler and report after it

	Jobs, Executed, CacheHits, CacheEntries int
	Snapshot                                program.CacheStats
	Solver                                  smt.QueryCacheStats
	AllocBytes, AllocObjects                uint64
	GCCPU, UsedCPU                          float64
}

// runStressOp runs one cold scheduled assertion of the system the spec
// names, from a collected heap, and prints its stressOp.
func runStressOp(spec string) error {
	var seed uint64
	var sites int
	if _, err := fmt.Sscanf(spec, "%d %d", &seed, &sites); err != nil {
		return fmt.Errorf("bad %s %q: %w", stressOpEnv, spec, err)
	}
	sys := newStressSystem((&config{workload: "stress-cold", seed: seed}).rng(), sites)
	base := liveHeapMB()
	p0 := sampleProc()
	t0 := time.Now()
	rep, st, e, sc, err := sys.coldAssert()
	out := stressOp{NS: int64(time.Since(t0))}
	p1 := sampleProc()
	if err == nil {
		err = sys.check(rep)
	}
	if err != nil {
		out.Err = err.Error()
	} else {
		out.HeapMB = liveHeapMB() - base
		out.Jobs, out.Executed, out.CacheHits = st.Jobs, st.Executed, st.CacheHits
		out.CacheEntries = sc.Cache().Stats().Entries
		out.Snapshot, out.Solver = e.Snapshots.Stats(), e.Solver.Stats()
		out.AllocBytes, out.AllocObjects = p1.allocBytes-p0.allocBytes, p1.allocObjects-p0.allocObjects
		out.GCCPU, out.UsedCPU = p1.gcCPU-p0.gcCPU, p1.usedCPU-p0.usedCPU
		runtime.KeepAlive(rep)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runStress measures cold scheduled assertions of a seeded synthetic
// system, each on a fresh engine in a fresh process from a collected
// heap.
func runStress(cfg *config) (*result, error) {
	r := newResult()
	var want string
	setup := func() (*stressSystem, error) {
		sys := newStressSystem(cfg.rng(), cfg.sites)
		rep, _, _, _, err := sys.coldAssert()
		if err == nil {
			err = sys.check(rep)
		}
		if err == nil {
			want = rep.Render()
		}
		return sys, err
	}
	release := func(*stressSystem) {}
	var setupSecs []float64
	setupsBefore, setupsAfter := setupRounds(cfg.setups)
	sys, err := timedSetups(setupsBefore, &setupSecs, setup, release)
	if err != nil {
		return nil, err
	}

	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ops := make([]stressOp, cfg.ops)
	rss := make([]float64, cfg.ops)
	l := newLoop(cfg.ops)
	p0 := sampleProc()
	l.run(1, func(i int) (time.Duration, error) {
		cmd := command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d %d", stressOpEnv, cfg.seed, cfg.sites))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("stress operation process: %w", err)
		}
		rss[i] = childRSSMB(cmd.ProcessState)
		if err := json.Unmarshal(stdout.Bytes(), &ops[i]); err != nil {
			return 0, fmt.Errorf("stress operation output: %w", err)
		}
		if ops[i].Err != "" {
			return time.Duration(ops[i].NS), errors.New(ops[i].Err)
		}
		return time.Duration(ops[i].NS), nil
	})
	p1 := sampleProc()
	l.record(r)
	// Throughput is over the assertions' own time: starting each one's
	// process is the benchmark's cost, not LISA's.
	var busy time.Duration
	heaps := make([]float64, cfg.ops)
	for i, lat := range l.lat {
		busy += lat
		heaps[i] = ops[i].HeapMB
	}
	r.set("throughput_ops_s", "ops/s", float64(cfg.ops)/busy.Seconds())
	r.set("heap_retained_mb", "MB", median(heaps))
	r.set("peak_rss_mb", "MB", median(rss))
	if err := moreSetups(setupsAfter, &setupSecs, setup, release); err != nil {
		return nil, err
	}
	r.set("setup_s", "s", median(setupSecs))
	if cfg.trace == nil {
		return r, nil
	}

	n := float64(cfg.ops)
	var jobs, executed, hits, entries, allocBytes, allocObjects, gcCPU, usedCPU float64
	var snaps program.CacheStats
	var solver smt.QueryCacheStats
	for _, op := range ops {
		jobs += float64(op.Jobs)
		executed += float64(op.Executed)
		hits += float64(op.CacheHits)
		entries += float64(op.CacheEntries)
		snaps = addSnapshotStats(snaps, op.Snapshot)
		solver = solver.Add(op.Solver)
		allocBytes += float64(op.AllocBytes)
		allocObjects += float64(op.AllocObjects)
		gcCPU += op.GCCPU
		usedCPU += op.UsedCPU
	}
	recordSchedCounters(r, jobs/n, executed/n, hits/n, entries/n)
	recordSnapshotCounters(r, snaps, n)
	recordSolverCounters(r, solver, n)
	r.set("runtime.alloc_mb_per_op", "MB/op", allocBytes/(1<<20)/n)
	r.set("runtime.allocs_per_op", "count/op", allocObjects/n)
	r.set("runtime.gc_cpu_share", "ratio", ratio(gcCPU, usedCPU))
	r.set("runtime.cpu_util", "ratio", cpuUtil(p0, p1))
	cfg.trace.addLoop("sched.assert", l)
	return r, traceStress(cfg, sys, want, median(durationsMS(l.lat)), r)
}

// traceStress replays each cold assertion through the engine's stage
// primitives in the order the sequential engine loop runs them, timing
// each call, and checks that the replica renders the report of the
// untraced run byte for byte. A scheduled run at one worker follows each
// replica, for the scheduler's overhead over the stages it runs.
func traceStress(cfg *config, sys *stressSystem, want string, untracedP50 float64, r *result) error {
	t := cfg.trace
	acc := perOp{}
	seqMS := make([]float64, cfg.ops)
	var oneWorker []float64
	for i := 0; i < cfg.ops; i++ {
		e, err := sys.engine()
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		rep, err := replicaAssert(t, i, e, sys, acc)
		if err != nil {
			return err
		}
		seqMS[i] = ms(time.Since(t0))
		var got string
		acc.timed(t, "ci.render", i, func() { got = rep.Render() })
		r.Attempted++
		if got != want {
			r.fail(fmt.Errorf("traced replica rendered a report different from the scheduled run's"))
		}
		acc.addReport(rep)

		e, err = sys.engine()
		if err != nil {
			return err
		}
		runtime.GC()
		t1 := time.Now()
		rep, _, err = sched.New().Assert(e, sys.src, sys.tests, sched.Options{Workers: 1})
		if err != nil {
			return err
		}
		wall := time.Since(t1)
		oneWorker = append(oneWorker, ms(wall))
		var stages time.Duration
		for _, d := range rep.StageTimings {
			stages += d
		}
		acc.add("sched.overhead_ms", ms(wall-stages))
	}
	acc.record(r, cfg.ops)
	r.set("sched.speedup", "x", ratio(median(seqMS), untracedP50))
	r.note("sequential primitive replica p50 %.4f ms, scheduled at one worker p50 %.4f ms, at the default width (untraced) p50 %.4f ms",
		median(seqMS), median(oneWorker), untracedP50)
	r.note("tracing overhead: traced sequential p50 / untraced scheduled p50 = %.3f", ratio(median(seqMS), untracedP50))
	return nil
}

// replicaAssert runs the sequential engine loop (core.Engine.Assert) from
// its public stage primitives, one span per call.
func replicaAssert(t *tracer, op int, e *core.Engine, sys *stressSystem, acc perOp) (*core.AssertReport, error) {
	var snap *program.Snapshot
	var err error
	acc.timed(t, "program.load", op, func() { snap, err = e.LoadSnapshot(sys.src) })
	if err != nil {
		return nil, err
	}
	tm := core.StageTimings{}
	var actx *core.AssertContext
	prep := t.do("program.prepare", op, func() { actx, err = e.PrepareSnapshot(snap, sys.tests, tm) })
	if err != nil {
		return nil, err
	}
	t.addStages(prep, tm, 0)
	acc.add("program.load_ms", ms(tm["compile"]))
	acc.add("callgraph.graph_ms", ms(tm["callgraph"]))
	rctx, cancel := e.Budget.RunContext(context.Background())
	defer cancel()
	report := &core.AssertReport{StageTimings: tm, StaticOnly: len(actx.Tests) == 0}
	for _, sem := range e.Registry.All() {
		var sr *core.SemanticReport
		if sem.Kind == contract.StructuralKind {
			acc.timed(t, "contract.structural", op, func() {
				sr = e.StructuralJob(rctx, actx, core.JobNameStructural(sem.ID), sem, tm)
			})
		} else {
			sr = &core.SemanticReport{Semantic: sem}
			var sites []*contract.Site
			acc.timed(t, "contract.match", op, func() { sites = e.MatchSites(actx, sem, tm) })
			for i, site := range sites {
				var siteRep *core.SiteReport
				acc.timed(t, "callgraph.exec_tree", op, func() { siteRep = e.SiteChains(actx, site, tm) })
				sr.Sites = append(sr.Sites, siteRep)
				var fail *core.JobFailure
				solve0 := smt.Stats().SolveTime
				job := t.do("concolic.walk", op, func() { fail = e.SiteJob(rctx, actx, core.JobNameSite(sem.ID, i), siteRep, tm) })
				solve := min(smt.Stats().SolveTime-solve0, t.spans[job].dur())
				if solve > 0 {
					end := t.spans[job].end
					t.add(span{name: "smt.solve", op: op, parent: job, start: end - solve, end: end})
				}
				acc.add("concolic.walk_ms", ms(t.spans[job].dur()-solve))
				acc.add("concolic.walk_allocs_per_op", float64(t.spans[job].allocs))
				acc.add("smt.solve_ms", ms(solve))
				if fail != nil {
					sr.Failures = append(sr.Failures, fail)
				}
			}
			if len(actx.Tests) > 0 {
				var n int
				var fail *core.JobFailure
				acc.timed(t, "concolic.replay", op, func() {
					n, fail = e.DynamicJob(rctx, actx, core.JobNameDynamic(sem.ID), sr, tm)
				})
				report.TestsRun += n
				if fail != nil {
					sr.Failures = append(sr.Failures, fail)
				}
			}
		}
		t.do("sched.absorb", op, func() { report.Absorb(sr) })
	}
	return report, nil
}
