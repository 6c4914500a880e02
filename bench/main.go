// Command bench is the gate benchmark. It drives LISA through its public
// packages and the built lisa binary on four workloads, checks every
// answer against a known one, and prints each workload's end-to-end
// metrics (or, with -trace 1, its per-layer metrics) by name and unit,
// ending with one JSON result line:
//
//	bash bench/run.sh --workload daemon-warm --seed 1 --seconds 20 --trace 0
//	cd bench && go run . -seed 1 -json out.json
//	cd bench && go run . -repeat 10 -seed 1
//
// -seconds sizes each workload's fixed operation count, so the same
// value gives the same work on every commit. -repeat N runs every
// workload N times on consecutive seeds, in child processes, and fails
// when an end-to-end metric spreads wider than its bound. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"lisa/internal/corpus"
	"lisa/internal/ticket"
)

// metricSpec describes one metric of BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd are the metrics a user of the gate sees, measured untraced.
// The median latency is printed but not listed: the shared two-core host
// the benchmark was defined on flips between a fast and a slow state,
// often within a run, and the median of such a mixture jumps from one
// state's value to the other's as the slow share crosses one half. The
// mean (throughput) and p90 move smoothly with it.
var endToEnd = []metricSpec{
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_retained_mb", "MB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the metrics of single layers, printed with -trace 1.
var perLayer = []metricSpec{
	{name: "server.handler_ms_p50", unit: "ms", better: "lower"},
	{name: "server.wire_ms_p50", unit: "ms", better: "lower"},
	{name: "server.response_kb", unit: "KB", better: "lower"},
	{name: "server.rejected", unit: "count", better: "lower"},
	{name: "ci.gate_ms", unit: "ms", better: "lower"},
	{name: "ci.render_ms", unit: "ms", better: "lower"},
	{name: "sched.overhead_ms", unit: "ms", better: "lower"},
	{name: "sched.jobs_per_op", unit: "count/op", better: "lower"},
	{name: "sched.executed_per_op", unit: "count/op", better: "lower"},
	{name: "sched.hit_ratio", unit: "ratio", better: "higher"},
	{name: "sched.cache_entries", unit: "count", better: "lower"},
	{name: "sched.speedup", unit: "x", better: "higher"},
	{name: "program.load_ms", unit: "ms", better: "lower"},
	{name: "program.compiles_per_op", unit: "count/op", better: "lower"},
	{name: "program.hit_ratio", unit: "ratio", better: "higher"},
	{name: "program.evictions", unit: "count", better: "lower"},
	{name: "program.graph_builds_per_op", unit: "count/op", better: "lower"},
	{name: "program.restores_decoded_per_op", unit: "count/op", better: "higher"},
	{name: "callgraph.graph_ms", unit: "ms", better: "lower"},
	{name: "callgraph.exec_tree_ms", unit: "ms", better: "lower"},
	{name: "callgraph.chains_per_op", unit: "count/op", better: "lower"},
	{name: "contract.match_ms", unit: "ms", better: "lower"},
	{name: "contract.structural_ms", unit: "ms", better: "lower"},
	{name: "concolic.walk_ms", unit: "ms", better: "lower"},
	{name: "concolic.walk_allocs_per_op", unit: "count/op", better: "lower"},
	{name: "concolic.paths_per_op", unit: "count/op", better: "lower"},
	{name: "concolic.replay_ms", unit: "ms", better: "lower"},
	{name: "concolic.tests_run_per_op", unit: "count/op", better: "lower"},
	{name: "smt.solve_ms", unit: "ms", better: "lower"},
	{name: "smt.queries_per_op", unit: "count/op", better: "lower"},
	{name: "smt.hit_ratio", unit: "ratio", better: "higher"},
	{name: "smt.solves_per_op", unit: "count/op", better: "lower"},
	{name: "smt.nodes_per_op", unit: "count/op", better: "lower"},
	{name: "store.open_ms", unit: "ms", better: "lower"},
	{name: "store.log_mb", unit: "MB", better: "lower"},
	{name: "store.disk_hits_per_op", unit: "count/op", better: "higher"},
	{name: "store.writes_per_op", unit: "count/op", better: "lower"},
	{name: "store.write_errors", unit: "count", better: "lower"},
	{name: "infer.process_ticket_ms", unit: "ms", better: "lower"},
	{name: "process.corpus_load_ms", unit: "ms", better: "lower"},
	{name: "process.exec_overhead_ms", unit: "ms", better: "lower"},
	{name: "runtime.alloc_mb_per_op", unit: "MB/op", better: "lower"},
	{name: "runtime.allocs_per_op", unit: "count/op", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "runtime.cpu_util", unit: "ratio", better: "higher"},
}

func unitOf(name string) string {
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if m.name == name {
			return m.unit
		}
	}
	panic("bench: unknown metric " + name)
}

// workload is one input mix. Its operation count is opsPerSecond times
// -seconds: sized so a run measures about -seconds at the commit that
// defined the benchmark, and fixed in code so both sides of a comparison
// do the same work.
type workload struct {
	name, why    string
	opsPerSecond float64
	clients      int
	setups       int // set-ups per run; setup_s is their median
	run          func(*config) (*result, error)
}

// The gate workloads draw from the 110 of the 142 corpus versions that
// build with their case's test suite; the other 32, old ticket versions,
// would all take the gate's "does not build" path.
var workloads = []workload{
	{"daemon-warm", "POST /gate of the 110 of 142 corpus versions that build with their case's tests, all gated before timing: cache hits, so server, JSON, render and planning dominate",
		1500, 1, 24, func(c *config) (*result, error) { return runDaemon(c, false) }},
	{"daemon-churn", "POST /gate of a distinct dead-local edit of one of the 110 building versions each op, fresh store: snapshot misses, dirty sets, job re-runs, store writes, a growing heap",
		500, 2, 24, func(c *config) (*result, error) { return runDaemon(c, true) }},
	{"cli-store", "one cold lisa gate process per op on one of the 110 building versions over a warm store: process start, corpus load, store open, decoded restores; no daemon memory helps",
		60, 1, 6, runCLI},
	{"stress-cold", "cold scheduled assert of a seeded 160-site synthetic system: path walk, solver, planner, call graph and worker pool; no server or store",
		8, 1, 12, runStress},
}

// config is one workload run.
type config struct {
	workload string
	seed     uint64
	ops      int
	clients  int
	setups   int
	sites    int     // stress-cold system size
	trace    *tracer // nil for the untraced run
	lisa     string  // the built lisa binary
	tmp      string  // parent of the run's scratch directories ("" = TMPDIR)
}

// rng returns the workload's input generator for the run's seed; every
// call starts the same sequence.
func (c *config) rng() *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(c.workload))
	return rand.New(rand.NewPCG(c.seed, h.Sum64()))
}

// inputs are the corpus-derived gate inputs with their answers.
type inputs struct {
	corpus   *ticket.Corpus
	loadDur  time.Duration // how long corpus.Load took
	versions []*version
	drawn    []*version // the versions that build with their case's test suite
	heads    []*version // each case's head, in corpus order
}

func loadInputs() (*inputs, error) {
	t0 := time.Now()
	c := corpus.Load()
	in := &inputs{corpus: c, loadDur: time.Since(t0)}
	var err error
	if in.versions, err = corpusVersions(c); err != nil {
		return nil, err
	}
	if err := loadOracle(in.versions); err != nil {
		return nil, err
	}
	for _, v := range in.versions {
		if v.builds() {
			in.drawn = append(in.drawn, v)
		}
		if v.class == "head" {
			in.heads = append(in.heads, v)
		}
	}
	return in, nil
}

// check compares an answer with the version's known one.
func (v *version) check(got answer) error {
	if got != v.want {
		return fmt.Errorf("%s %s %s: gate answered %s, want %s", v.cs.ID, v.class, v.label, got, v.want)
	}
	return nil
}

func main() {
	if spec := os.Getenv(stressOpEnv); spec != "" {
		if err := runStressOp(spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run (default: all four in turn)")
	seed := flag.Uint64("seed", 1, "seed the workload inputs are drawn from")
	seconds := flag.Int("seconds", 20, "run length: sizes each workload's fixed operation count")
	trace := flag.Int("trace", 0, "1: also replay the operations traced and report the per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the spans to this file as Chrome trace-event JSON")
	jsonOut := flag.String("json", "", "also write the results to this file as JSON")
	repeat := flag.Int("repeat", 0, "run each workload this many times on consecutive seeds and check each end-to-end metric's spread against its bound")
	lisa := flag.String("lisa", "", "the lisa binary the cli-store workload runs (default: build it)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *traceOut, *jsonOut, *repeat, *lisa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, traceOut, jsonOut string, repeat int, lisa string) error {
	if seconds < 1 || (trace != 0 && trace != 1) || repeat < 0 {
		return fmt.Errorf("need -seconds >= 1, -trace 0 or 1, -repeat >= 0")
	}
	selected := workloads
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == name {
				selected = append(selected, w)
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	needsLisa := slices.ContainsFunc(selected, func(w workload) bool { return w.name == "cli-store" })
	if lisa == "" && needsLisa {
		dir, err := os.MkdirTemp("", "bench-lisa-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if lisa, err = buildLisa(dir); err != nil {
			return err
		}
	}
	if repeat > 0 {
		return repeatRuns(selected, seed, seconds, repeat, lisa)
	}
	results := map[string]*result{}
	traces := map[string]*tracer{}
	for _, w := range selected {
		cfg := &config{workload: w.name, seed: seed, clients: w.clients, setups: w.setups, sites: stressSites, lisa: lisa,
			ops: max(1, int(w.opsPerSecond*float64(seconds)+0.5))}
		if trace == 1 {
			cfg.trace = newTracer()
			traces[w.name] = cfg.trace
		}
		fmt.Printf("== %s: seed %d, %d ops, %d client(s)\n", w.name, seed, cfg.ops, cfg.clients)
		r, err := w.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if cfg.trace != nil {
			r.notes = append(r.notes, cfg.trace.table(cfg.ops)...)
		}
		if err := emit(r, cfg.trace != nil); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		results[w.name] = r
	}
	if traceOut != "" && trace == 1 {
		if err := writeTrace(traceOut, traces); err != nil {
			return err
		}
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(map[string]any{"seed": seed, "seconds": seconds, "trace": trace, "workloads": results}, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(jsonOut, append(data, '\n'), 0o644)
	}
	return nil
}

// emit prints a result for a human reader, then as the JSON line. The
// JSON carries the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one; a per-layer metric the workload
// does not exercise reads 0.
func emit(r *result, traced bool) error {
	r.Correct = r.Failed == 0
	for _, n := range r.notes {
		fmt.Println("   ", n)
	}
	fmt.Printf("    error rate: %d failed of %d attempted = %g\n", r.Failed, r.Attempted, ratio(float64(r.Failed), float64(r.Attempted)))
	if r.firstErr != "" {
		fmt.Printf("    first failure: %s\n", r.firstErr)
	}
	printed := endToEnd
	if traced {
		printed = slices.Concat(endToEnd, perLayer)
	}
	out := newResult()
	out.Correct, out.Attempted, out.Failed = r.Correct, r.Attempted, r.Failed
	for _, m := range printed {
		v, ok := r.Metrics[m.name]
		if !ok && m.bound > 0 {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		if !ok {
			v = metric{Unit: m.unit}
		}
		fmt.Printf("    %-32s %16.6f %s\n", m.name, v.Value, v.Unit)
		if traced == (m.bound == 0) {
			out.Metrics[m.name] = v
		}
	}
	r.Metrics = out.Metrics
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// buildLisa builds the lisa CLI from source into dir. It runs in the
// benchmark's module, which resolves lisa to the enclosing repository.
func buildLisa(dir string) (string, error) {
	bin := filepath.Join(dir, "lisa")
	cmd := command("go", "build", "-o", bin, "lisa/cmd/lisa")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build lisa: %w", err)
	}
	return bin, nil
}

// repeatRuns runs each workload n times on seeds seed..seed+n-1, each in
// a child process of this binary (peak RSS is a process's high-water
// mark), and prints each end-to-end metric's median and the distance
// between its first and third quartiles as a share of the median — the
// spread a comparison against this benchmark has to see past. It fails
// when a run is not correct or any spread exceeds its metric's bound.
func repeatRuns(selected []workload, seed uint64, seconds, n int, lisa string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var problems []string
	for _, w := range selected {
		samples := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed + uint64(i)
			cmd := command(exe, "-workload", w.name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0", "-lisa", lisa)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			r, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			if !r.Correct {
				problems = append(problems, fmt.Sprintf("%s seed %d: %d of %d operations failed", w.name, s, r.Failed, r.Attempted))
			}
			for name, m := range r.Metrics {
				samples[name] = append(samples[name], m.Value)
			}
		}
		fmt.Printf("== %s: %d runs, seeds %d..%d, -seconds %d\n", w.name, n, seed, seed+uint64(n)-1, seconds)
		for _, m := range endToEnd {
			med, spread := spreadOf(samples[m.name])
			verdict := "ok"
			if spread > m.bound {
				verdict = "WIDER THAN BOUND"
				problems = append(problems, fmt.Sprintf("%s %s spreads %.3f, bound %.2f", w.name, m.name, spread, m.bound))
			}
			fmt.Printf("    %-20s median %14.6f %-6s spread %.4f (bound %.2f) %s\n", m.name, med, m.unit, spread, m.bound, verdict)
		}
	}
	if problems != nil {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &r, nil
}

// spreadOf returns the median of xs and the distance between its first
// and third quartiles as a share of the median, with quartiles and median
// computed as Python's statistics.quantiles(xs, n=4) and
// statistics.median compute them.
func spreadOf(xs []float64) (med, spread float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		return med, 0
	}
	// The "exclusive" method: the i-th quartile sits at position
	// i*(n+1)/4 of the sorted data, clamped to [1, n-1].
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return med, ratio(q(3)-q(1), med)
}
