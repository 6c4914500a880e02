package experiments

import (
	"fmt"

	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/infer"
	"lisa/internal/report"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// ReliabilityPoint is one cell of the E-Q1 sweep.
type ReliabilityPoint struct {
	Noise             float64
	Seeds             int
	RawPrecision      float64
	RawRecall         float64
	CheckedPrecision  float64
	CheckedRecall     float64
	RejectedPerturbed int
}

// ReliabilitySweep runs the §5 Q1 experiment: perturb inference with
// increasing noise and measure rule quality with and without the
// cross-checking defence. Ground truth is the deterministic analyzer's
// output per ticket.
func ReliabilitySweep(c *ticket.Corpus, noises []float64, seeds int) []ReliabilityPoint {
	base := &infer.PatchAnalyzer{Generalize: false}
	var out []ReliabilityPoint
	for _, noise := range noises {
		var rawTP, rawFP, rawFN int
		var ccTP, ccFP, ccFN int
		rejectedPerturbed := 0
		for seed := 0; seed < seeds; seed++ {
			si := &infer.StochasticInferencer{
				Base: base, Seed: int64(seed)*7919 + 13,
				DropRate:        noise,
				MutateRate:      noise,
				HallucinateRate: noise,
			}
			for _, cs := range c.Cases {
				for _, tk := range cs.Tickets {
					truth, err := base.Infer(tk)
					if err != nil || len(truth.Semantics) == 0 {
						continue
					}
					truthIDs := map[string]bool{}
					for _, s := range truth.Semantics {
						truthIDs[s.ID] = true
					}
					noisy, err := si.Infer(tk)
					if err != nil {
						continue
					}
					count := func(sems []*contract.Semantic) (tp, fp int) {
						for _, s := range sems {
							if truthIDs[s.ID] && !infer.IsPerturbed(s.ID) {
								tp++
							} else {
								fp++
							}
						}
						return tp, fp
					}
					tp, fp := count(noisy.Semantics)
					rawTP += tp
					rawFP += fp
					rawFN += len(truthIDs) - tp

					kept, rejected := infer.FilterGrounded(noisy, tk)
					tp, fp = count(kept)
					ccTP += tp
					ccFP += fp
					ccFN += len(truthIDs) - tp
					for _, r := range rejected {
						if infer.IsPerturbed(r.SemanticID) {
							rejectedPerturbed++
						}
					}
				}
			}
		}
		out = append(out, ReliabilityPoint{
			Noise:             noise,
			Seeds:             seeds,
			RawPrecision:      ratio(rawTP, rawTP+rawFP),
			RawRecall:         ratio(rawTP, rawTP+rawFN),
			CheckedPrecision:  ratio(ccTP, ccTP+ccFP),
			CheckedRecall:     ratio(ccTP, ccTP+ccFN),
			RejectedPerturbed: rejectedPerturbed,
		})
	}
	return out
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// RunReliability renders the E-Q1 sweep.
func RunReliability(c *ticket.Corpus) string {
	points := ReliabilitySweep(c, []float64{0, 0.1, 0.2, 0.3, 0.5}, 5)
	t := &report.Table{
		Title:   "Simulated LLM noise vs rule quality (5 seeds x 34 tickets per cell)",
		Headers: []string{"noise", "raw precision", "raw recall", "cross-checked precision", "cross-checked recall", "perturbed rules rejected"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.1f", p.Noise), p.RawPrecision, p.RawRecall,
			p.CheckedPrecision, p.CheckedRecall, p.RejectedPerturbed)
	}
	t.AddNote("cross-checking mined semantics against actual system behavior keeps precision near 1.0 as noise rises; recall degrades only with dropped rules, which no validator can resurrect.")
	return t.Render()
}

// ComposeResult is one row of the E-Q3 composition study.
type ComposeResult struct {
	CaseID     string
	Rules      int
	Consistent bool
	Entails    bool
}

// ComposeStudy runs the §5 Q3 preliminary study: within each case,
// canonicalize every mined state rule to operand positions, conjoin them,
// and check that the composition is consistent and entails each component —
// the first step toward assembling high-level guarantees from validated
// low-level pieces.
func ComposeStudy(c *ticket.Corpus) []ComposeResult {
	pa := &infer.PatchAnalyzer{}
	var out []ComposeResult
	for _, cs := range c.Cases {
		var canon []smt.Formula
		for _, tk := range cs.Tickets {
			res, err := pa.Infer(tk)
			if err != nil {
				continue
			}
			for _, sem := range res.Semantics {
				if sem.Kind != contract.StateKind {
					continue
				}
				f := sem.Pre
				for slot, idx := range sem.Target.Bind {
					f = smt.RenameRoot(f, slot, fmt.Sprintf("$op%d", idx))
				}
				canon = append(canon, f)
			}
		}
		if len(canon) == 0 {
			continue
		}
		composed := smt.NewAnd(canon...)
		// Solver failures (budget) count against the property: a
		// composition we cannot prove consistent is not a building block.
		lim := smt.Limits{Cache: smt.DefaultQueryCache()}
		consistent, cerr := smt.SATLim(composed, lim)
		res := ComposeResult{
			CaseID:     cs.ID,
			Rules:      len(canon),
			Consistent: consistent && cerr == nil,
			Entails:    true,
		}
		for _, f := range canon {
			entails, eerr := smt.ImpliesLim(composed, f, lim)
			if eerr != nil || !entails {
				res.Entails = false
			}
		}
		out = append(out, res)
	}
	return out
}

// RunCompose renders the E-Q3 study.
func RunCompose(c *ticket.Corpus) string {
	results := ComposeStudy(c)
	t := &report.Table{
		Title:   "Composing per-case low-level semantics",
		Headers: []string{"case", "state rules", "composition consistent", "entails each component"},
	}
	okAll := 0
	for _, r := range results {
		t.AddRow(r.CaseID, r.Rules, report.Bool(r.Consistent), report.Bool(r.Entails))
		if r.Consistent && r.Entails {
			okAll++
		}
	}
	t.AddNote("%d/%d cases compose into a consistent conjunction that entails every component rule — the building-block property the paper's long-term vision needs.", okAll, len(results))
	return t.Render()
}

// RunAblations renders the design-choice ablations called out in DESIGN.md.
func RunAblations(c *ticket.Corpus) string {
	var sb string

	// 1. Relevant-variable pruning on/off: paths recorded per site.
	pr := &report.Table{
		Title:   "Ablation: relevant-variable pruning",
		Headers: []string{"configuration", "logical paths", "violations"},
	}
	for _, noPrune := range []bool{false, true} {
		paths, violations := 0, 0
		for _, cs := range c.Cases {
			e := core.New()
			e.NoPrune = noPrune
			if _, err := e.ProcessTicket(cs.Tickets[0]); err != nil {
				continue
			}
			last := cs.Tickets[len(cs.Tickets)-1]
			rep, err := e.Assert(last.BuggySource, nil)
			if err != nil {
				continue
			}
			paths += rep.Counts.Verified + rep.Counts.Violations + rep.Counts.Unknown
			violations += rep.Counts.Violations
		}
		name := "pruned (paper)"
		if noPrune {
			name = "unpruned"
		}
		pr.AddRow(name, paths, violations)
	}
	pr.AddNote("pruning collapses branch histories over irrelevant variables (audit flags, counters): fewer logical paths to solve and report, no findings lost — an unpruned run duplicates the same violation once per irrelevant branch combination.")
	sb += pr.Render()

	// 2. Complement check vs naive contradiction check on the worked
	// example of §3.2.
	cc := &report.Table{
		Title:   "Ablation: complement check vs naive contradiction check (§3.2 worked example)",
		Headers: []string{"trace condition", "scenario", "complement check", "naive check"},
	}
	checker, err := smt.ParsePredicate(`s != null && s.isClosing() == false && s.ttl > 0`)
	if err != nil {
		cc.AddNote("checker predicate failed to parse: %v", err)
		sb += cc.Render()
		return sb
	}
	traces := []struct {
		cond string
		desc string
	}{
		{`s == null`, "creates on null session"},
		{`s != null && s.isClosing() == false`, "omits the ttl check"},
		{`s != null && s.isClosing() == false && s.ttl > 0`, "full guard"},
	}
	for _, tr := range traces {
		pc, perr := smt.ParsePredicate(tr.cond)
		if perr != nil {
			cc.AddRow(tr.cond, tr.desc, fmt.Sprintf("parse failed: %v", perr), "-")
			continue
		}
		verdict, _ := concolic.CheckPathLim(pc, checker, smt.Limits{Cache: smt.DefaultQueryCache()})
		cc.AddRow(tr.cond, tr.desc, verdict.String(), naiveVerdict(pc, checker).String())
	}
	cc.AddNote("the naive check treats a missing s.ttl condition as satisfied and passes the unguarded trace; the complement check flags it.")
	sb += cc.Render()

	// 3. Interprocedural condition inheritance on/off: without it, guards
	// in callers are invisible and protected internal helpers get flagged.
	ip := &report.Table{
		Title:   "Ablation: interprocedural condition inheritance",
		Headers: []string{"configuration", "violations on fixed heads (false positives)"},
	}
	for _, intraOnly := range []bool{false, true} {
		fps := 0
		for _, cs := range c.Cases {
			e := core.New()
			e.IntraOnly = intraOnly
			if _, err := e.ProcessTicket(cs.Tickets[0]); err != nil {
				continue
			}
			last := cs.Tickets[len(cs.Tickets)-1]
			rep, err := e.Assert(last.FixedSource, nil)
			if err != nil {
				continue
			}
			fps += rep.Counts.Violations
		}
		name := "chain inheritance (paper's execution tree)"
		if intraOnly {
			name = "intraprocedural only"
		}
		ip.AddRow(name, fps)
	}
	ip.AddNote("guard-in-caller layering (e.g. the zksim request router) is only provable with conditions inherited along entry-to-target chains.")
	sb += ip.Render()

	// 4. Test selection vs full-suite replay.
	ts := &report.Table{
		Title:   "Ablation: similarity-based test selection",
		Headers: []string{"configuration", "test executions", "violations"},
	}
	for _, all := range []bool{false, true} {
		runs, violations := 0, 0
		for _, cs := range c.Cases {
			e := core.New()
			e.RunAllTests = all
			if _, err := e.ProcessTicket(cs.Tickets[0]); err != nil {
				continue
			}
			last := cs.Tickets[len(cs.Tickets)-1]
			rep, err := e.Assert(last.BuggySource, availableTests(cs, last))
			if err != nil {
				continue
			}
			runs += rep.TestsRun
			violations += rep.Counts.Violations
		}
		name := "selected top-k (paper)"
		if all {
			name = "full suite"
		}
		ts.AddRow(name, runs, violations)
	}
	ts.AddNote("selection reaches the same verdicts with fewer concrete executions.")
	sb += ts.Render()
	return sb
}

// availableTests returns the case suite minus the given ticket's own
// regression tests (which did not exist when the regression shipped) and
// minus tests that reference classes newer than the ticket's source.
func availableTests(cs *ticket.Case, tk *ticket.Ticket) []ticket.TestCase {
	excluded := map[string]bool{}
	for _, rt := range tk.RegressionTests {
		excluded[rt.Name] = true
	}
	var out []ticket.TestCase
	for _, tc := range cs.Tests {
		if excluded[tc.Name] {
			continue
		}
		if _, err := compileQuiet(tk.BuggySource + "\n" + tc.Source); err != nil {
			continue
		}
		out = append(out, tc)
	}
	return out
}
