// Command lisabench regenerates every table and figure of the paper from
// the simulated corpus. Run one experiment with -exp <name>, or all of
// them with -exp all (the default). Full runs end with a wall-clock
// ledger showing where the sweep spent its time, plus cache and solver
// summaries; -json writes the same numbers to a machine-readable file so
// the perf trajectory can be tracked across PRs (BENCH_N.json).
//
// Usage:
//
//	lisabench [-exp study|timeline|ephemeral|comparison|workflow|
//	                generalize|hbase|hdfs|reliability|compose|ablations|
//	                chaos|stress|all]
//	          [-timings=false] [-seed N] [-json FILE] [-stress-sites N]
//	lisabench -diff BENCH_N.json
//	    Perf-regression gate: run the full sweep quietly and compare the
//	    deterministic cost counters of the tracked hot paths (solver
//	    queries/searches/nodes, snapshot compiles/graph builds) against
//	    the committed baseline; exits 1 on >25% growth. Wall clocks, hit
//	    rates and each experiment's heap allocations are printed for
//	    context but never gate (wall clocks depend on machine load; the
//	    allocations' run-to-run spread is not yet measured; the counters
//	    are exactly reproducible).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"time"

	"lisa/internal/corpus"
	"lisa/internal/experiments"
	"lisa/internal/program"
	"lisa/internal/report"
	"lisa/internal/smt"
	"lisa/internal/store"
	"lisa/internal/ticket"
)

// benchOutput is the machine-readable summary -json writes: experiment
// wall clocks and heap allocations plus the process-wide cache and solver
// counters. Older BENCH_N.json files also carry a "benchmarks" key of
// hand-merged go-test results, which parsing ignores, and none carries
// allocations.
type benchOutput struct {
	ExperimentsMS     map[string]float64    `json:"experiments_ms"`
	ExperimentsAllocs map[string]heapAllocs `json:"experiments_allocs,omitempty"`
	Snapshot          program.CacheStats    `json:"snapshot_cache"`
	Solver            smt.SolverStats       `json:"solver"`
}

// heapAllocs is what an experiment allocated on the heap: the deltas of
// runtime/metrics' cumulative heap allocation counters across its run
// (objects count the tiny allocator's blocks, not its objects).
type heapAllocs struct {
	Objects uint64 `json:"objects"`
	Bytes   uint64 `json:"bytes"`
}

// readAllocs reads the cumulative heap allocation counters.
func readAllocs() heapAllocs {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return heapAllocs{Objects: s[0].Value.Uint64(), Bytes: s[1].Value.Uint64()}
}

// ledger records each experiment's wall clock, in run order, and its heap
// allocations.
type ledger struct {
	tm     *report.Timings
	allocs map[string]heapAllocs
}

func newLedger() *ledger {
	return &ledger{tm: report.NewTimings(), allocs: map[string]heapAllocs{}}
}

// run runs f as the named experiment, recording its wall clock and what
// the process allocated meanwhile.
func (l *ledger) run(name string, f func()) {
	before := readAllocs()
	l.tm.Time(name, f)
	after := readAllocs()
	l.allocs[name] = heapAllocs{Objects: after.Objects - before.Objects, Bytes: after.Bytes - before.Bytes}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (use 'all' for every experiment); one of "+experiments.Names())
	timings := flag.Bool("timings", true, "print the per-experiment wall-clock ledger after a full run")
	seed := flag.Int64("seed", 1, "deterministic seed for seeded experiments (chaos fault plan)")
	jsonPath := flag.String("json", "", "write bench/summary numbers (experiment wall clock, cache and solver stats) to this file")
	diffPath := flag.String("diff", "", "run the full sweep quietly and diff its counters against this committed BENCH_*.json; exit non-zero on >25% regression in the tracked hot-path counters")
	storeDir := flag.String("store", "", "back the process-wide snapshot and solver caches with an on-disk store at this directory (default off: counters then match a store-less run exactly)")
	stressSites := flag.Int("stress-sites", experiments.StressSites, "guarded call sites the E-P1 stress corpus generates (the paper-scale run uses 10000; the stress run uses private caches, so the -diff counters are unaffected)")
	flag.Parse()

	experiments.ChaosSeed = *seed
	experiments.StressSites = *stressSites
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lisabench: open store:", err)
			os.Exit(2)
		}
		program.DefaultCache().SetStore(st)
		smt.DefaultQueryCache().SetStore(st)
		defer func() {
			st.Flush()
			// The store's own ledger, write failures included: a bench run
			// whose persistence silently failed is not a baseline.
			s := st.Stats()
			fmt.Printf("store: %d records, %d puts, %d appends, %d write errors\n",
				s.Records, s.Puts, s.Writes, s.WriteErrors)
			if s.WriteErrors > 0 {
				fmt.Printf("store: last write error: %s\n", s.LastWriteError)
			}
			st.Close()
		}()
	}

	c := corpus.Load()
	if *diffPath != "" {
		if runDiff(*diffPath, c) > 0 {
			os.Exit(1)
		}
		return
	}
	if *exp == "all" {
		l := sweep(c, os.Stdout)
		if *timings {
			fmt.Print(l.tm.Render("Wall clock by experiment"))
			// Experiments replay the same corpus versions over and over;
			// the snapshot cache shows how much front-end work was shared.
			st := program.DefaultCache().Stats()
			fmt.Printf("snapshot cache: %d loads, %d hits, %d distinct versions compiled, %d call graphs built, %d evictions\n",
				st.Hits+st.Misses, st.Hits, st.Compiles, st.GraphBuilds, st.Evictions)
			// The solver sits under every verdict; its ledger shows how the
			// sweep's SMT time splits between search and theory, and how
			// much the query cache absorbed.
			ss := smt.Stats()
			sv := report.NewTimings()
			sv.Record("dpll search", ss.SolveTime-ss.TheoryTime)
			sv.Record("theory propagation", ss.TheoryTime)
			fmt.Print(sv.Render("Solver wall clock"))
			fmt.Print(solverLine(ss))
		}
		if *jsonPath != "" {
			writeJSON(*jsonPath, l)
		}
		return
	}
	l := newLedger()
	var out string
	var err error
	l.run(*exp, func() { out, err = experiments.Run(*exp, c) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "lisabench:", err)
		os.Exit(2)
	}
	fmt.Print(out)
	if *jsonPath != "" {
		writeJSON(*jsonPath, l)
	}
}

// solverLine renders the one-line solver summary shown after a full sweep
// (the line quoted in the README).
func solverLine(ss smt.SolverStats) string {
	return fmt.Sprintf("solver: %d queries, %d cache hits, %d misses, %d evictions; %d solves over %d search nodes\n",
		ss.Queries, ss.CacheHits, ss.CacheMisses, ss.CacheEvictions, ss.Solves, ss.Nodes)
}

// sweep runs every experiment in registry order, writing each one's
// section and output to w (the output matches experiments.Run("all", c)),
// and returns each experiment's wall clock and allocations.
func sweep(c *ticket.Corpus, w io.Writer) *ledger {
	l := newLedger()
	for _, e := range experiments.Registry {
		fmt.Fprint(w, report.Section("EXPERIMENT "+e.Name+": "+e.Title))
		var out string
		l.run(e.Name, func() { out = e.Run(c) })
		fmt.Fprint(w, out)
	}
	return l
}

// newBenchOutput fills the summary -json writes and -diff compares: the
// wall clocks and allocations in l and the process-wide snapshot cache and
// solver counters, which every experiment's shared work goes through.
func newBenchOutput(l *ledger) benchOutput {
	out := benchOutput{
		ExperimentsMS:     map[string]float64{},
		ExperimentsAllocs: l.allocs,
		Snapshot:          program.DefaultCache().Stats(),
		Solver:            smt.Stats(),
	}
	for _, name := range l.tm.Names() {
		out.ExperimentsMS[name] = float64(l.tm.Get(name)) / float64(time.Millisecond)
	}
	return out
}

// writeJSON dumps the run's summary numbers for the perf trajectory.
func writeJSON(path string, l *ledger) {
	data, err := json.MarshalIndent(newBenchOutput(l), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lisabench: encode json:", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "lisabench: write json:", err)
		os.Exit(2)
	}
}
