package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"lisa/internal/ci"
	"lisa/internal/core"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/server"
	"lisa/internal/smt"
	"lisa/internal/store"
	"lisa/internal/ticket"
)

// daemon is the gate daemon of `lisa serve` on a loopback listener, with
// the HTTP client the benchmark drives it through.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when the HTTP server has stopped
	tr     *http.Transport
	cl     *server.Client
	read   atomic.Int64 // response body bytes the client has read

	st      *store.Store
	dir     string
	openDur time.Duration // how long store.Open took
}

// startDaemon serves the corpus on 127.0.0.1, over a fresh store in
// storeDir when it is not empty.
func startDaemon(c *ticket.Corpus, clients int, storeDir string) (*daemon, error) {
	d := &daemon{served: make(chan struct{}), dir: storeDir}
	cfg := server.Config{Corpus: c}
	if storeDir != "" {
		t0 := time.Now()
		st, err := store.Open(storeDir)
		if err != nil {
			return nil, err
		}
		d.openDur = time.Since(t0)
		d.st = st
		cfg.Store = st
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.closeStore()
		return nil, err
	}
	d.srv = server.New(cfg)
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	d.tr = &http.Transport{MaxIdleConnsPerHost: clients}
	d.cl = server.NewClient("http://" + ln.Addr().String())
	d.cl.SetHTTPClient(&http.Client{Transport: countingTransport{d.tr, &d.read}})
	return d, nil
}

// stop drains the daemon, stops its HTTP server and waits for it, then
// closes and deletes its store.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), server.DefaultDrainTimeout)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench: drain:", err)
	}
	d.hs.Shutdown(ctx)
	<-d.served
	d.tr.CloseIdleConnections()
	d.closeStore()
}

func (d *daemon) closeStore() {
	if d.st == nil {
		return
	}
	if err := d.st.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: store flush:", err)
	}
	d.st.Close()
	os.RemoveAll(d.dir)
}

// gate posts one incremental gate and checks its answer.
func (d *daemon) gate(v *version, change string) (*server.GateResponse, error) {
	resp, err := d.cl.Gate(server.GateRequest{Case: v.cs.ID, Change: change, Summary: "bench", Incremental: true})
	if err != nil {
		return nil, err
	}
	got, err := responseAnswer(resp)
	if err != nil {
		return resp, err
	}
	return resp, v.check(got)
}

// prime gates every case's head once: it builds each case runtime
// (ticket inference and rule registration) and warms its fingerprint
// cache, which is what a fresh daemon does before it serves at speed.
func (d *daemon) prime(heads []*version) error {
	for _, v := range heads {
		if _, err := d.gate(v, v.source); err != nil {
			return fmt.Errorf("priming %s: %w", v.cs.ID, err)
		}
	}
	return nil
}

// countingTransport counts the response body bytes read through it.
type countingTransport struct {
	rt   http.RoundTripper
	read *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(req)
	if err == nil {
		resp.Body = countingBody{resp.Body, t.read}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	read *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.read.Add(int64(n))
	return n, err
}

// runDaemon measures the daemon workloads. daemon-warm draws corpus
// versions, all gated once before timing, so every measured gate is
// served from warm caches; daemon-churn gates a distinct edit of a drawn
// version on every operation, over an on-disk store.
func runDaemon(cfg *config, churn bool) (*result, error) {
	r := newResult()
	in, err := loadInputs()
	if err != nil {
		return nil, err
	}
	rng := cfg.rng()
	pick := make([]int, cfg.ops)
	method := make([]int, cfg.ops)
	for i := range pick {
		pick[i] = rng.IntN(len(in.drawn))
		method[i] = rng.IntN(1 << 20)
	}
	// input is operation i's change and the version it must answer as.
	input := func(i int) (*version, string) {
		v := in.drawn[pick[i]]
		if churn {
			return v, v.edit(i+1, method[i])
		}
		return v, v.source
	}
	// Per-operation response fields, allocated before the heap baseline.
	handlerMS := make([]float64, cfg.ops)
	jobs := make([]float64, cfg.ops)
	executed := make([]float64, cfg.ops)
	hits := make([]float64, cfg.ops)
	l := newLoop(cfg.ops)
	baseHeap := liveHeapMB()

	setup := func() (*daemon, error) {
		dir := ""
		if churn {
			var err error
			if dir, err = os.MkdirTemp(cfg.tmp, "churn-store-"); err != nil {
				return nil, err
			}
		}
		d, err := startDaemon(in.corpus, cfg.clients, dir)
		if err != nil {
			return nil, err
		}
		if err := d.prime(in.heads); err != nil {
			d.stop()
			return nil, err
		}
		return d, nil
	}
	var setupSecs []float64
	setupsBefore, setupsAfter := setupRounds(cfg.setups)
	d, err := timedSetups(setupsBefore, &setupSecs, setup, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if !churn {
		for _, v := range in.drawn {
			r.Attempted++
			if _, err := d.gate(v, v.source); err != nil {
				r.fail(err)
			}
		}
	}

	before, err := d.cl.Stats()
	if err != nil {
		return nil, err
	}
	readBefore := d.read.Load()
	p0 := sampleProc()
	l.run(cfg.clients, func(i int) (time.Duration, error) {
		v, change := input(i)
		req := server.GateRequest{Case: v.cs.ID, Change: change, Summary: "bench", Incremental: true}
		t0 := time.Now()
		resp, err := d.cl.Gate(req)
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		handlerMS[i] = resp.DurationMS
		jobs[i], executed[i], hits[i] = float64(resp.Cache.SchedJobs), float64(resp.Cache.SchedExecuted), float64(resp.Cache.SchedCacheHits)
		got, err := responseAnswer(resp)
		if err != nil {
			return lat, err
		}
		return lat, v.check(got)
	})
	p1 := sampleProc()
	readBytes := d.read.Load() - readBefore
	after, err := d.cl.Stats()
	if err != nil {
		return nil, err
	}
	l.record(r)
	d.tr.CloseIdleConnections()
	r.set("heap_retained_mb", "MB", liveHeapMB()-baseHeap)
	r.set("peak_rss_mb", "MB", peakRSSMB())
	if err := moreSetups(setupsAfter, &setupSecs, setup, (*daemon).stop); err != nil {
		return nil, err
	}
	r.set("setup_s", "s", median(setupSecs))
	if cfg.trace == nil {
		return r, nil
	}

	// Per-layer: counters at the run's boundaries and response fields.
	ops := float64(cfg.ops)
	recordRuntime(r, p0, p1, cfg.ops)
	wire := make([]float64, cfg.ops)
	for i, ms := range durationsMS(l.lat) {
		wire[i] = ms - handlerMS[i]
	}
	r.set("server.handler_ms_p50", "ms", median(handlerMS))
	r.set("server.wire_ms_p50", "ms", median(wire))
	r.set("server.response_kb", "KB", float64(readBytes)/1024/ops)
	r.set("server.rejected", "count", float64(rejected(after)-rejected(before)))
	entries := 0
	for _, cs := range after.Cases {
		entries += cs.SchedCache.Entries
	}
	recordSchedCounters(r, mean(jobs), mean(executed), mean(hits), float64(entries))
	recordSnapshotCounters(r, after.Snapshot.Sub(before.Snapshot), ops)
	recordSolverCounters(r, after.Solver.Sub(before.Solver), ops)
	if churn {
		// The log's size once the write-behind queue has drained; a failed
		// write shows in store.write_errors.
		if err := d.st.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: store flush:", err)
		}
		r.set("store.open_ms", "ms", ms(d.openDur))
		recordStoreCounters(r, *before.Store, *after.Store, d.dir, ops)
	}
	r.set("process.corpus_load_ms", "ms", ms(in.loadDur))
	cfg.trace.addLoop("server.gate", l)
	return r, traceDaemon(cfg, in, churn, input, median(durationsMS(l.lat)), r)
}

// rejected counts the requests the daemon refused: while draining, or by
// admission control.
func rejected(s *server.StatsResponse) uint64 {
	a := s.Admission
	return s.Requests.Refused + a.RejectedQuota + a.RejectedQueueFull + a.RejectedDraining
}

// traceDaemon replays the daemon workload's operations in process, one at
// a time, over per-case engines and schedulers built the way the daemon
// builds its case runtimes, and times each operation's layers: snapshot
// load, the gate at one worker (so the engine's stage timings do not
// overlap), and the report render.
func traceDaemon(cfg *config, in *inputs, churn bool, input func(int) (*version, string), untracedP50 float64, r *result) error {
	t := cfg.trace
	var st *store.Store
	if churn {
		dir, err := os.MkdirTemp(cfg.tmp, "churn-trace-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if st, err = store.Open(dir); err != nil {
			return err
		}
		defer st.Close()
	}
	snaps := program.NewCache(0)
	snaps.SetStore(st)
	type caseRuntime struct {
		e *core.Engine
		s *sched.Scheduler
	}
	runtimes := map[string]caseRuntime{}
	var register []float64
	for _, cs := range in.corpus.Cases {
		var e *core.Engine
		var err error
		id := t.do("infer.register_case", -1, func() { e, err = newCaseEngine(cs, snaps) })
		if err != nil {
			return err
		}
		register = append(register, ms(t.spans[id].dur()))
		e.Solver.SetStore(st)
		s := sched.New()
		s.Cache().SetStore(st)
		t.do("sched.prime", -1, func() { _, _, err = s.Assert(e, cs.Head(), cs.Tests, sched.Options{Workers: 1}) })
		if err != nil {
			return err
		}
		runtimes[cs.ID] = caseRuntime{e, s}
	}
	r.set("infer.process_ticket_ms", "ms", mean(register))
	gate := func(v *version, change string, opts ci.GateOptions) (*ci.Result, error) {
		rt := runtimes[v.cs.ID]
		opts.Scheduler, opts.Workers, opts.Incremental = rt.s, 1, true
		return ci.GateWith(rt.e, ci.Change{Summary: "bench", OldSource: v.cs.Head(), NewSource: change}, v.cs.Tests, opts)
	}
	if !churn {
		for _, v := range in.drawn {
			if _, err := gate(v, v.source, ci.GateOptions{}); err != nil {
				return err
			}
		}
	}

	acc := perOp{}
	opMS := make([]float64, cfg.ops)
	for i := 0; i < cfg.ops; i++ {
		v, src := input(i)
		e := runtimes[v.cs.ID].e
		solve0 := smt.Stats().SolveTime
		t0 := time.Now()
		load := t.do("program.load", i, func() { loadBoth(e, src, v.cs.Head()) })
		var res *ci.Result
		var err error
		g := t.do("ci.gate", i, func() { res, err = gate(v, src, ci.GateOptions{}) })
		if err != nil {
			return err
		}
		render := t.do("ci.render", i, func() {
			if res.Report != nil {
				res.Report.Render()
			}
		})
		opMS[i] = ms(time.Since(t0))
		solve := smt.Stats().SolveTime - solve0
		r.Attempted++
		if err := v.check(resultAnswer(res)); err != nil {
			r.fail(err)
		}
		acc.addSpans(t, []int{load, g, render})
		acc.addGate(t, g, res, solve)
	}
	acc.record(r, cfg.ops)
	r.note("tracing overhead: traced p50 %.4f ms / untraced p50 %.4f ms = %.3f", median(opMS), untracedP50, ratio(median(opMS), untracedP50))
	return nil
}

// addSnapshotStats sums the counters of two snapshot caches.
func addSnapshotStats(a, b program.CacheStats) program.CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.Compiles += b.Compiles
	a.GraphBuilds += b.GraphBuilds
	a.RestoresDecoded += b.RestoresDecoded
	return a
}

// recordSnapshotCounters sets the program-layer counters of a run.
func recordSnapshotCounters(r *result, d program.CacheStats, ops float64) {
	r.set("program.compiles_per_op", "count/op", float64(d.Compiles)/ops)
	r.set("program.hit_ratio", "ratio", ratio(float64(d.Hits), float64(d.Hits+d.Misses)))
	r.set("program.evictions", "count", float64(d.Evictions))
	r.set("program.graph_builds_per_op", "count/op", float64(d.GraphBuilds)/ops)
	r.set("program.restores_decoded_per_op", "count/op", float64(d.RestoresDecoded)/ops)
}

// recordSolverCounters sets the smt-layer counters of a run.
func recordSolverCounters(r *result, d smt.QueryCacheStats, ops float64) {
	r.set("smt.queries_per_op", "count/op", float64(d.Queries)/ops)
	r.set("smt.hit_ratio", "ratio", ratio(float64(d.Hits), float64(d.Queries)))
	r.set("smt.solves_per_op", "count/op", float64(d.Solves)/ops)
	r.set("smt.nodes_per_op", "count/op", float64(d.Nodes)/ops)
}

// recordSchedCounters sets the scheduler-layer counters of a run: mean
// jobs planned, executed and served from cache per operation, and the
// fingerprint cache's entries.
func recordSchedCounters(r *result, jobs, executed, hits, entries float64) {
	r.set("sched.jobs_per_op", "count/op", jobs)
	r.set("sched.executed_per_op", "count/op", executed)
	r.set("sched.hit_ratio", "ratio", ratio(hits, jobs))
	r.set("sched.cache_entries", "count", entries)
}

// storeLogMB is the size of the store log in dir.
func storeLogMB(dir string) float64 {
	fi, err := os.Stat(filepath.Join(dir, "store.log"))
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / (1 << 20)
}

// recordStoreCounters sets the store-layer counters of a run.
func recordStoreCounters(r *result, before, after store.Stats, dir string, ops float64) {
	r.set("store.log_mb", "MB", storeLogMB(dir))
	r.set("store.disk_hits_per_op", "count/op", float64(after.Hits-before.Hits)/ops)
	r.set("store.writes_per_op", "count/op", float64(after.Writes-before.Writes)/ops)
	r.set("store.write_errors", "count", float64(after.WriteErrors))
}
