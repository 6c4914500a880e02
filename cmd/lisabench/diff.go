package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"lisa/internal/ticket"
)

// The perf-regression gate compares a fresh full-sweep snapshot against a
// committed BENCH_*.json baseline and fails on growth in the tracked
// *cost counters* of the hot paths: solver work (queries, searches, search
// nodes) and snapshot front-end work (compiles, call-graph builds), which
// between them account for the scheduled-assert cost the benchmarks track.
// Counters are compared rather than wall clocks because they are exactly
// reproducible run to run (the sweep is deterministic), so the gate never
// flakes on machine load; wall clocks and hit rates are printed for
// context but do not gate.
const (
	// diffGrowthFactor is the tracked-counter regression threshold: fail
	// when fresh > base × 1.25.
	diffGrowthFactor = 1.25
	// diffSlack is an absolute floor under the relative threshold so tiny
	// baselines (a counter of 4 growing to 6) do not trip the gate.
	diffSlack = 32
)

// trackedCounter is one gated metric extracted from a benchOutput.
type trackedCounter struct {
	name string
	get  func(benchOutput) uint64
}

var trackedCounters = []trackedCounter{
	{"solver.queries", func(b benchOutput) uint64 { return b.Solver.Queries }},
	{"solver.solves", func(b benchOutput) uint64 { return b.Solver.Solves }},
	{"solver.nodes", func(b benchOutput) uint64 { return b.Solver.Nodes }},
	{"snapshot.compiles", func(b benchOutput) uint64 { return b.Snapshot.Compiles }},
	{"snapshot.graph_builds", func(b benchOutput) uint64 { return b.Snapshot.GraphBuilds }},
}

// runDiff executes the full experiment sweep quietly, snapshots the
// counters, and diffs them against the committed baseline. It returns the
// number of regressions (the caller exits non-zero on any).
func runDiff(baselinePath string, c *ticket.Corpus) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lisabench: read baseline:", err)
		return 1
	}
	var base benchOutput
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintln(os.Stderr, "lisabench: parse baseline:", err)
		return 1
	}

	return diffBench(baselinePath, base, newBenchOutput(sweep(c, io.Discard)))
}

// diffBench prints the comparison and returns the regression count.
func diffBench(baselinePath string, base, fresh benchOutput) int {
	fmt.Printf("perf diff vs %s (gate: tracked counters, fail above ×%.2f%+d)\n",
		baselinePath, diffGrowthFactor, diffSlack)
	regressions := 0
	fmt.Printf("  %-24s %12s %12s %8s\n", "tracked counter", "baseline", "fresh", "ratio")
	for _, tc := range trackedCounters {
		b, f := tc.get(base), tc.get(fresh)
		verdict := "ok"
		if regressedCounter(b, f) {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("  %-24s %12d %12d %8s  %s\n", tc.name, b, f, ratio(float64(b), float64(f)), verdict)
	}

	// Cache effectiveness, for context: a counter regression above usually
	// shows up here first as a falling hit rate.
	fmt.Printf("  %-24s %12s %12s\n", "hit rate (info)", "baseline", "fresh")
	fmt.Printf("  %-24s %12s %12s\n", "solver cache",
		pct(base.Solver.CacheHits, base.Solver.Queries), pct(fresh.Solver.CacheHits, fresh.Solver.Queries))
	fmt.Printf("  %-24s %12s %12s\n", "snapshot cache",
		pct(base.Snapshot.Hits, base.Snapshot.Hits+base.Snapshot.Misses),
		pct(fresh.Snapshot.Hits, fresh.Snapshot.Hits+fresh.Snapshot.Misses))

	// Wall clocks are machine- and load-dependent, so they inform but
	// never gate.
	var names []string
	for name := range base.ExperimentsMS {
		if _, ok := fresh.ExperimentsMS[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Printf("  %-24s %12s %12s %8s\n", "wall clock ms (info)", "baseline", "fresh", "ratio")
		for _, name := range names {
			b, f := base.ExperimentsMS[name], fresh.ExperimentsMS[name]
			fmt.Printf("  %-24s %12.1f %12.1f %8s\n", name, b, f, ratio(b, f))
		}
	}

	if regressions > 0 {
		fmt.Printf("perf diff: %d regression(s) past the ×%.2f threshold\n", regressions, diffGrowthFactor)
	} else {
		fmt.Println("perf diff: ok")
	}
	return regressions
}

// regressedCounter applies the gate threshold: relative growth past
// diffGrowthFactor that also clears the absolute slack.
func regressedCounter(base, fresh uint64) bool {
	return float64(fresh) > float64(base)*diffGrowthFactor && fresh-base > diffSlack
}

func ratio(base, fresh float64) string {
	if base == 0 {
		return "—"
	}
	return fmt.Sprintf("%.2f", fresh/base)
}

func pct(hit, total uint64) string {
	if total == 0 {
		return "—"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hit)/float64(total))
}
