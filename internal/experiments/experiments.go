// Package experiments implements the reproduction harness: one entry per
// figure and quantitative claim of the paper, each regenerating the
// corresponding rows/series from the simulated corpus. cmd/lisabench and
// the root bench_test.go drive these entries; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"fmt"

	"lisa/internal/concolic"
	"lisa/internal/core"
	"lisa/internal/interp"
	"lisa/internal/report"
	"lisa/internal/ticket"
)

// Registry maps experiment names to runners, in presentation order.
var Registry = []struct {
	Name  string
	Title string
	Run   func(c *ticket.Corpus) string
}{
	{"study", "§2.1 study: regression failures across systems (E-S1)", RunStudy},
	{"timeline", "Figure 1: regressions recur without enforcement (E-F1)", RunTimeline},
	{"ephemeral", "Figures 2-3: the ZooKeeper ephemeral-node case (E-F2/F3)", RunEphemeral},
	{"comparison", "Figure 4: testing vs low-level semantics vs exhaustive checking (E-F4)", RunComparison},
	{"workflow", "Figure 5: end-to-end workflow with stage timings (E-F5)", RunWorkflow},
	{"generalize", "Figure 6: literal vs generalized rules (E-F6)", RunGeneralize},
	{"hbase", "§4 Bug #1: expired-snapshot checks missing in latest hbasesim (E-B1)", RunHBaseBug},
	{"hdfs", "§4 Bug #2: observer location checks missing in latest hdfssim (E-B2)", RunHDFSBug},
	{"reliability", "§5 Q1: LLM noise and the cross-checking defence (E-Q1)", RunReliability},
	{"compose", "§5 Q3: composing low-level semantics (E-Q3)", RunCompose},
	{"mutation", "DESIGN sweep: guard-weakening mutants, tests vs LISA (E-M1)", RunMutation},
	{"ablations", "Design ablations: pruning, complement check, test selection (E-A1)", RunAblations},
	{"chaos", "Degradation modes: fault-injection matrix over the gate (E-R1)", RunChaos},
	{"stress", "Scaling: sequential loop vs scheduler widths on the synthetic stress corpus (E-P1)", RunStress},
}

// Run executes the named experiment over the corpus, or every experiment
// when name is "all".
func Run(name string, c *ticket.Corpus) (string, error) {
	if name == "all" {
		out := ""
		for _, e := range Registry {
			out += report.Section("EXPERIMENT " + e.Name + ": " + e.Title)
			out += e.Run(c)
		}
		return out, nil
	}
	for _, e := range Registry {
		if e.Name == name {
			return e.Run(c), nil
		}
	}
	return "", fmt.Errorf("unknown experiment %q (have: %s)", name, Names())
}

// Names lists the experiment names.
func Names() string {
	var ns []string
	for _, e := range Registry {
		ns = append(ns, e.Name)
	}
	ns = append(ns, "all")
	return fmt.Sprint(ns)
}

// RunStudy regenerates the §2.1 study numbers: cases, bugs, systems, test
// corpus size, and per-feature longevity (the ephemeral feature's 46 bugs
// over 14 years analogue).
func RunStudy(c *ticket.Corpus) string {
	st := c.ComputeStats()
	summary := &report.Table{
		Title:   "Study corpus summary",
		Headers: []string{"metric", "value"},
	}
	summary.AddRow("regression cases", st.Cases)
	summary.AddRow("total bugs", st.Bugs)
	summary.AddRow("systems", st.Systems)
	summary.AddRow("test files", st.TestFiles)

	perSystem := &report.Table{
		Title:   "Per-system breakdown",
		Headers: []string{"system", "cases", "bugs", "tests", "max feature span (yrs)"},
	}
	for _, name := range c.SystemNames() {
		ss := st.BySystem[name]
		perSystem.AddRow(name, ss.Cases, ss.Bugs, ss.Tests, ss.Span)
	}

	features := &report.Table{
		Title:   "Recurring feature areas",
		Headers: []string{"case", "system", "feature", "studied bugs", "feature bugs", "span (yrs)", "suite coverage"},
	}
	totalCov := 0.0
	covered := 0
	for _, cs := range c.Cases {
		cov, ok := suiteCoverage(cs)
		covText := "-"
		if ok {
			covText = fmt.Sprintf("%.0f%%", cov*100)
			totalCov += cov
			covered++
		}
		features.AddRow(cs.ID, cs.System, cs.Feature, cs.Bugs(), cs.FeatureBugCount,
			cs.LastReported-cs.FirstReported, covText)
	}
	if covered > 0 {
		features.AddNote("mean statement coverage of the suites at head: %.0f%% — \"a significant volume of test cases with satisfactory code coverage\" (§2.2).",
			totalCov/float64(covered)*100)
	}
	return summary.Render() + perSystem.Render() + features.Render()
}

// suiteCoverage replays a case's full suite against its head and measures
// the fraction of system statements executed (test-class statements are
// excluded from the denominator).
func suiteCoverage(cs *ticket.Case) (float64, bool) {
	head := cs.Head()
	sysProg, err := compileQuiet(head)
	if err != nil {
		return 0, false
	}
	sysClasses := map[string]bool{}
	for _, c := range sysProg.Classes {
		sysClasses[c.Name] = true
	}
	full := head
	for _, tc := range cs.Tests {
		full += "\n" + tc.Source
	}
	prog, err := compileQuiet(full)
	if err != nil {
		return 0, false
	}
	runner := concolic.NewRunner(prog, nil, interp.Options{})
	for _, tc := range cs.Tests {
		_ = runner.RunStatic(tc.Name, tc.Class, tc.Method)
	}
	var total, hit int
	for id := 0; id < prog.NumStmts(); id++ {
		m := prog.MethodOf(id)
		if m == nil || !sysClasses[m.Class.Name] {
			continue
		}
		total++
		if runner.StmtsCovered[id] {
			hit++
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(hit) / float64(total), true
}

// RunTimeline regenerates Figure 1: replaying each case's history shows the
// regression recurring when nothing is enforced, and blocked pre-merge when
// the rule inferred from the first fix gates changes.
func RunTimeline(c *ticket.Corpus) string {
	t := &report.Table{
		Title:   "History replay: would enforcement have prevented the recurrence?",
		Headers: []string{"case", "bugs", "recurrences", "caught by first-fix rule", "missed"},
	}
	totalRec, totalCaught := 0, 0
	for _, cs := range c.Cases {
		e := core.New()
		if _, err := e.ProcessTicket(cs.Tickets[0]); err != nil {
			t.AddRow(cs.ID, cs.Bugs(), "-", "error: "+err.Error(), "-")
			continue
		}
		caught, missed := 0, 0
		for _, tk := range cs.Tickets[1:] {
			rep, err := e.Assert(tk.BuggySource, nil)
			if err != nil || rep.Counts.Violations == 0 {
				missed++
				continue
			}
			caught++
		}
		totalRec += caught + missed
		totalCaught += caught
		t.AddRow(cs.ID, cs.Bugs(), caught+missed, caught, missed)
	}
	t.AddNote("%d/%d recurrences would have been blocked before merge by enforcing the rule learned from the first fix.",
		totalCaught, totalRec)
	return t.Render()
}
