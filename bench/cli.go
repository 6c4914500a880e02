package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"lisa/internal/ci"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/smt"
	"lisa/internal/store"
)

// cliGate runs one `lisa gate -case C -change F -store DIR` process and
// returns its answer and its resident-set high-water mark in MB.
func cliGate(lisa string, v *version, changeFile, storeDir string) (answer, float64, error) {
	cmd := command(lisa, "gate", "-case", v.cs.ID, "-change", changeFile, "-store", storeDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return answer{}, 0, err
	}
	rss := childRSSMB(cmd.ProcessState)
	got, err := cliAnswer(cmd.ProcessState.ExitCode(), stdout.String())
	if err != nil {
		return got, rss, fmt.Errorf("%w; stderr: %.200s", err, stderr.String())
	}
	return got, rss, nil
}

// runCLI measures the cold-process path: one `lisa gate` process per
// operation, one at a time, over a store that one pass of gates over
// every corpus version warmed in set-up.
func runCLI(cfg *config) (*result, error) {
	r := newResult()
	in, err := loadInputs()
	if err != nil {
		return nil, err
	}
	rng := cfg.rng()
	pick := make([]int, cfg.ops)
	for i := range pick {
		pick[i] = rng.IntN(len(in.drawn))
	}
	dir, err := os.MkdirTemp(cfg.tmp, "cli-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	files := make([]string, len(in.drawn))
	for i, v := range in.drawn {
		files[i] = filepath.Join(dir, "change"+strconv.Itoa(i)+".mj")
		if err := os.WriteFile(files[i], []byte(v.source), 0o644); err != nil {
			return nil, err
		}
	}
	gate := func(i int, storeDir string) {
		v := in.drawn[i]
		r.Attempted++
		got, _, err := cliGate(cfg.lisa, v, files[i], storeDir)
		if err == nil {
			err = v.check(got)
		}
		if err != nil {
			r.fail(err)
		}
	}
	setup := func() (string, error) {
		sd, err := os.MkdirTemp(dir, "store-")
		if err != nil {
			return "", err
		}
		for i := range in.drawn {
			gate(i, sd)
		}
		return sd, nil
	}
	release := func(sd string) { os.RemoveAll(sd) }
	var setupSecs []float64
	setupsBefore, setupsAfter := setupRounds(cfg.setups)
	storeDir, err := timedSetups(setupsBefore, &setupSecs, setup, release)
	if err != nil {
		return nil, err
	}

	rss := make([]float64, cfg.ops)
	l := newLoop(cfg.ops)
	p0 := sampleProc()
	l.run(1, func(i int) (time.Duration, error) {
		v := in.drawn[pick[i]]
		t0 := time.Now()
		got, maxRSS, err := cliGate(cfg.lisa, v, files[pick[i]], storeDir)
		lat := time.Since(t0)
		rss[i] = maxRSS
		if err != nil {
			return lat, err
		}
		return lat, v.check(got)
	})
	p1 := sampleProc()
	l.record(r)
	r.set("peak_rss_mb", "MB", median(rss))
	if err := moreSetups(setupsAfter, &setupSecs, setup, release); err != nil {
		return nil, err
	}
	r.set("setup_s", "s", median(setupSecs))

	// The heap a CLI gate holds when it is done, before it closes its
	// store, measured on an in-process replica gating each case's head.
	var heaps []float64
	for _, v := range in.heads {
		base := liveHeapMB()
		g, err := replicaGate(nil, -1, v, storeDir)
		if err != nil {
			return nil, err
		}
		heaps = append(heaps, liveHeapMB()-base)
		if err := g.close(nil, -1); err != nil {
			return nil, err
		}
	}
	r.set("heap_retained_mb", "MB", median(heaps))
	if cfg.trace == nil {
		return r, nil
	}

	cfg.trace.addLoop("process.exec", l)
	acc := perOp{}
	opMS := make([]float64, cfg.ops)
	var storeHits, storeWrites, storeErrors float64
	var snaps program.CacheStats
	var solver smt.QueryCacheStats
	var jobs, executed, hits, entries float64
	q0 := sampleProc()
	for i := 0; i < cfg.ops; i++ {
		t := cfg.trace
		v := in.drawn[pick[i]]
		t0 := time.Now()
		g, err := replicaGate(t, i, v, storeDir)
		if err != nil {
			return nil, err
		}
		if err := g.close(t, i); err != nil {
			return nil, err
		}
		opMS[i] = ms(time.Since(t0))
		r.Attempted++
		if err := v.check(resultAnswer(g.res)); err != nil {
			r.fail(err)
		}
		acc.addSpans(t, append(g.spans, g.gateSpan))
		acc.addGate(t, g.gateSpan, g.res, g.solve)
		st := g.st.Stats()
		storeHits += float64(st.Hits)
		storeWrites += float64(st.Writes)
		storeErrors += float64(st.WriteErrors)
		snaps = addSnapshotStats(snaps, g.e.Snapshots.Stats())
		solver = solver.Add(g.e.Solver.Stats())
		if g.res.Sched != nil {
			jobs += float64(g.res.Sched.Jobs)
			executed += float64(g.res.Sched.Executed)
			hits += float64(g.res.Sched.CacheHits)
		}
		entries += float64(g.s.Cache().Stats().Entries)
	}
	q1 := sampleProc()
	ops := float64(cfg.ops)
	acc.record(r, cfg.ops)
	// Allocation and GC figures are the replica's (the children's are not
	// observable); CPU use is the real processes'.
	recordRuntime(r, q0, q1, cfg.ops)
	r.set("runtime.cpu_util", "ratio", cpuUtil(p0, p1))
	recordSnapshotCounters(r, snaps, ops)
	recordSolverCounters(r, solver, ops)
	recordSchedCounters(r, jobs/ops, executed/ops, hits/ops, entries/ops)
	r.set("store.log_mb", "MB", storeLogMB(storeDir))
	r.set("store.disk_hits_per_op", "count/op", storeHits/ops)
	r.set("store.writes_per_op", "count/op", storeWrites/ops)
	r.set("store.write_errors", "count", storeErrors)
	untraced := median(durationsMS(l.lat))
	r.set("process.exec_overhead_ms", "ms", untraced-median(opMS))
	r.note("tracing overhead: in-process replica p50 %.4f ms / CLI p50 %.4f ms = %.3f", median(opMS), untraced, ratio(median(opMS), untraced))
	return r, nil
}

// replica is an in-process replay of one `lisa gate -store` process,
// holding what the process holds when its gate is done.
type replica struct {
	st       *store.Store
	e        *core.Engine
	s        *sched.Scheduler
	res      *ci.Result
	gateSpan int
	spans    []int // the replica's own spans, other than the gate
	solve    time.Duration
}

// replicaGate replays the CLI gate path for version v over the store in
// storeDir: corpus load, store open, rule registration, snapshot loads,
// the gate at one worker, and the gate log. With a tracer each step is a
// span of operation op.
func replicaGate(t *tracer, op int, v *version, storeDir string) (*replica, error) {
	step := func(name string, f func()) int {
		if t == nil {
			f()
			return -1
		}
		return t.do(name, op, f)
	}
	g := &replica{}
	var err error
	var cs = v.cs
	g.spans = append(g.spans, step("process.corpus_load", func() { cs = corpus.Load().Get(v.cs.ID) }))
	g.spans = append(g.spans, step("store.open", func() { g.st, err = store.Open(storeDir) }))
	if err != nil {
		return nil, err
	}
	snaps := program.NewCache(0)
	snaps.SetStore(g.st)
	g.spans = append(g.spans, step("infer.register_case", func() { g.e, err = newCaseEngine(cs, snaps) }))
	if err != nil {
		g.st.Close()
		return nil, err
	}
	g.e.Solver.SetStore(g.st)
	g.s = sched.New()
	g.s.Cache().SetStore(g.st)
	solve0 := smt.Stats().SolveTime
	g.spans = append(g.spans, step("program.load", func() { loadBoth(g.e, v.source, cs.Head()) }))
	g.gateSpan = step("ci.gate", func() {
		g.res, err = ci.GateWith(g.e, ci.Change{Summary: "proposed change", OldSource: cs.Head(), NewSource: v.source},
			cs.Tests, ci.GateOptions{Scheduler: g.s, Workers: 1})
	})
	g.solve = smt.Stats().SolveTime - solve0
	if err != nil {
		g.st.Close()
		return nil, err
	}
	g.spans = append(g.spans, step("ci.render", func() { g.res.Summary() }))
	return g, nil
}

// close flushes and closes the replica's store, as the CLI does on exit.
func (g *replica) close(t *tracer, op int) error {
	var err error
	f := func() {
		err = g.st.Flush()
		if cerr := g.st.Close(); err == nil {
			err = cerr
		}
	}
	if t == nil {
		f()
	} else {
		g.spans = append(g.spans, t.do("store.close", op, f))
	}
	return err
}
