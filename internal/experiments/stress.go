package experiments

// This file is the E-P1 scaling study: a seeded synthetic corpus far
// larger than the paper's case studies — thousands of guarded call sites
// behind deep helper chains — asserted under every execution topology the
// engine offers (sequential loop, scheduler at several widths).
// The point is the shape of the scaling curve and the byte-identity
// invariant, not the absolute numbers: every topology must render the same
// report.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/program"
	"lisa/internal/report"
	"lisa/internal/sched"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// StressSites is the approximate number of guarded call sites the stress
// corpus generates. The default keeps `go test` and the lisabench sweep
// quick; cmd/lisabench -stress-sites raises it to the paper-scale 10k run
// recorded in EXPERIMENTS.md E-P1.
var StressSites = 2000

// stressCorpus generates the synthetic system: features independent
// service replicas, each with one contract (ephemeral create requires a
// live session) and sitesPerFeature guarded call sites, every site at the
// bottom of a three-hop caller chain so path enumeration does real work.
// The generator is purely count-seeded — the same StressSites always
// yields byte-identical source and spec.
func stressCorpus(features, handlersPerFeature int) (src, spec string) {
	var sb, sp strings.Builder
	for f := 0; f < features; f++ {
		fmt.Fprintf(&sb, `
class Session%d {
	bool closing;
}

class DataTree%d {
	map nodes;

	void createEphemeral(string path, Session%d owner) {
		nodes.put(path, owner);
	}
}

class Prep%d {
	DataTree%d tree;
`, f, f, f, f, f)
		for h := 0; h < handlersPerFeature; h++ {
			// Each handler guards two call sites; the entry chain above it
			// adds three hops of branching callers.
			fmt.Fprintf(&sb, `
	void handle%[2]d(string path, Session%[1]d s, int mode) {
		if (s == null || s.closing) {
			throw "KeeperException";
		}
		if (mode > 2) {
			tree.createEphemeral(path, s);
		} else {
			tree.createEphemeral(path, s);
		}
	}

	void relay%[2]d(string path, Session%[1]d s, int mode) {
		if (mode > 1) {
			handle%[2]d(path, s, mode);
		} else {
			handle%[2]d(path, s, mode);
		}
	}

	void route%[2]d(string path, Session%[1]d s, int mode) {
		if (mode == 1) {
			relay%[2]d(path, s, mode);
		} else {
			relay%[2]d(path, s, mode);
		}
	}

	void entry%[2]d(string path, Session%[1]d s, int mode, int retries) {
		if (retries > 0) {
			route%[2]d(path, s, mode);
		} else {
			route%[2]d(path, s, mode);
		}
	}
`, f, h)
		}
		sb.WriteString("}\n")
		fmt.Fprintf(&sp, `
rule stress-eph-%d
description: ephemeral create requires a live session (stress replica %d)
target: DataTree%d.createEphemeral
bind: s = arg 1
require: s != null && s.closing == false
`, f, f, f)
	}
	return sb.String(), sp.String()
}

// stressEngine builds a fresh engine over the stress spec with private
// snapshot and solver caches, so every topology starts cold. Private
// caches also keep the process-wide counters that lisabench -diff tracks
// untouched by the stress run, so the perf gate stays exactly reproducible
// at any -stress-sites.
func stressEngine(spec string) (*core.Engine, error) {
	sems, err := contract.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	e := core.New()
	e.Snapshots = program.NewCache(program.DefaultCapacity)
	e.Solver = smt.NewQueryCache(0)
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// stressTests exercises replica 0's deepest chain so each topology also
// runs a dynamic replay wave.
func stressTests() []ticket.TestCase {
	return []ticket.TestCase{{
		Name:        "StressTest.liveCreate",
		Description: "create on a live session reaches the tree",
		Class:       "StressTest",
		Method:      "liveCreate",
		Source: `
class StressTest {
	static void liveCreate() {
		Prep0 p = new Prep0();
		p.tree = new DataTree0();
		p.tree.nodes = newMap();
		Session0 s = new Session0();
		s.closing = false;
		p.entry0("/live", s, 1, 1);
		assertTrue(p.tree.nodes.has("/live"), "node created");
	}
}
`,
	}}
}

// RunStress regenerates the E-P1 scaling table. The corpus argument is
// unused — the workload is synthetic by design, sized by StressSites.
func RunStress(_ *ticket.Corpus) string {
	handlersPerFeature := 25 // 50 sites per feature
	features := StressSites / (handlersPerFeature * 2)
	if features < 4 {
		features = 4
	}
	src, spec := stressCorpus(features, handlersPerFeature)
	tests := stressTests()
	sites := features * handlersPerFeature * 2

	// Sequential baseline: the plain engine loop. Every timed topology
	// starts from a collected heap, and only the rendered baseline (not
	// the engine or report object graph) stays live across topologies —
	// the workload allocates heavily, and retained state or GC debt from
	// one topology would otherwise tax the next, skewing the curve by run
	// order.
	var want string
	var seqWall time.Duration
	var verified int
	{
		seqEngine, err := stressEngine(spec)
		if err != nil {
			return "stress generator error: " + err.Error()
		}
		runtime.GC()
		seqStart := time.Now()
		seqRep, err := seqEngine.Assert(src, tests)
		if err != nil {
			return "stress sequential error: " + err.Error()
		}
		seqWall = time.Since(seqStart)
		want = seqRep.Render()
		verified = seqRep.Counts.Verified
	}

	t := &report.Table{
		Title: fmt.Sprintf("Scaling: %d guarded sites, %d contracts, deep call chains (GOMAXPROCS=%d)",
			sites, features, runtime.GOMAXPROCS(0)),
		Headers: []string{"topology", "wall (ms)", "speedup", "identical"},
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.0f", float64(d)/float64(time.Millisecond)) }
	speedup := func(d time.Duration) string { return fmt.Sprintf("%.2fx", float64(seqWall)/float64(d)) }
	t.AddRow("sequential engine loop", ms(seqWall), "1.00x", "-")

	identical := true
	schedTopo := func(label string, workers int) {
		e, err := stressEngine(spec)
		if err != nil {
			t.AddRow(label, "error: "+err.Error(), "-", "-")
			identical = false
			return
		}
		runtime.GC()
		start := time.Now()
		rep, _, err := sched.New().Assert(e, src, tests, sched.Options{Workers: workers})
		if err != nil {
			t.AddRow(label, "error: "+err.Error(), "-", "-")
			identical = false
			return
		}
		wall := time.Since(start)
		same := rep.Render() == want
		identical = identical && same
		t.AddRow(label, ms(wall), speedup(wall), yesNo(same))
	}
	schedTopo("scheduler, workers=1 (inline)", 1)
	schedTopo(fmt.Sprintf("scheduler, workers=GOMAXPROCS (%d)", runtime.GOMAXPROCS(0)), 0)

	if identical {
		t.AddNote("every topology rendered byte-identically to the sequential report (%d sites, %d verified paths).",
			sites, verified)
	} else {
		t.AddNote("DIVERGENCE: a topology rendered a different report — worker count must never change verdicts.")
	}
	if runtime.GOMAXPROCS(0) == 1 {
		t.AddNote("single-core runner: parallel topologies cannot beat the sequential loop here; the curve is meaningful on multi-core runners (EXPERIMENTS.md E-P1).")
	}
	return t.Render()
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
