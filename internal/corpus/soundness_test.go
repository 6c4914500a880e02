package corpus

import (
	"testing"

	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/infer"
	"lisa/internal/interp"
	"lisa/internal/minij"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// TestSymbolicVerdictsSoundAgainstRuntime is the corpus-wide soundness
// cross-check between the two views of a contract: whenever a test
// dynamically reaches a target site in a state that concretely violates the
// checker (the runtime-monitor view), the recorded symbolic path condition
// must also flag the path (the complement-check view). Conversely, a path
// the symbolic check declares VERIFIED must never be reached in a concretely
// violating state.
func TestSymbolicVerdictsSoundAgainstRuntime(t *testing.T) {
	var hits, concreteViolations int
	lim := smt.Limits{Cache: smt.NewQueryCache(0)}
	for _, cs := range Load().Cases {
		// Collect every state semantic mentioned anywhere in the case.
		pa := &infer.PatchAnalyzer{}
		var sems []*contract.Semantic
		for _, tk := range cs.Tickets {
			res, err := pa.Infer(tk)
			if err != nil {
				t.Fatalf("%s/%s: %v", cs.ID, tk.ID, err)
			}
			for _, sem := range res.Semantics {
				if sem.Kind == contract.StateKind {
					sems = append(sems, sem)
				}
			}
		}
		if len(sems) == 0 {
			continue
		}
		// Exercise every version of the case with every compilable test.
		versions := []string{}
		for _, tk := range cs.Tickets {
			versions = append(versions, tk.BuggySource, tk.FixedSource)
		}
		if cs.Latest != "" {
			versions = append(versions, cs.Latest)
		}
		for _, version := range versions {
			for _, tc := range cs.Tests {
				prog, err := minij.Parse(version + "\n" + tc.Source)
				if err != nil {
					continue
				}
				if err := minij.Check(prog); err != nil {
					continue
				}
				var sites []*contract.Site
				for _, sem := range sems {
					sites = append(sites, contract.Match(sem, prog)...)
				}
				runner := concolic.NewRunner(prog, sites, interp.Options{})
				_ = runner.RunStatic(tc.Name, tc.Class, tc.Method)
				for _, h := range runner.Hits {
					hits++
					v := h.VerdictLim(lim)
					if h.ConcreteChecker == concolic.TriFalse {
						concreteViolations++
						if v != concolic.VerdictViolation {
							t.Errorf("%s/%s: UNSOUND: concrete state violates %s at %s but symbolic verdict is %v (cond=%s)",
								cs.ID, tc.Name, h.Site.Semantic.ID, h.Site, v, h.Cond)
						}
					}
					if v == concolic.VerdictVerified && h.ConcreteChecker == concolic.TriFalse {
						t.Errorf("%s/%s: verified path reached in violating state at %s", cs.ID, tc.Name, h.Site)
					}
				}
			}
		}
	}
	if hits < 50 {
		t.Errorf("cross-check exercised only %d hits; corpus drive too thin", hits)
	}
	if concreteViolations == 0 {
		t.Error("no concrete violations observed; the cross-check never bit")
	}
	t.Logf("cross-checked %d dynamic hits, %d concretely violating", hits, concreteViolations)
}

// TestConcreteCheckerAgreesOnFixedVersions: on each ticket's fixed source,
// regression tests must never reach a site in a violating state (the fix
// works at runtime, not only symbolically).
func TestConcreteCheckerAgreesOnFixedVersions(t *testing.T) {
	pa := &infer.PatchAnalyzer{}
	for _, cs := range Load().Cases {
		for _, tk := range cs.Tickets {
			res, err := pa.Infer(tk)
			if err != nil {
				t.Fatal(err)
			}
			var sems []*contract.Semantic
			for _, sem := range res.Semantics {
				if sem.Kind == contract.StateKind {
					sems = append(sems, sem)
				}
			}
			if len(sems) == 0 {
				continue
			}
			runTests := func(tests []ticket.TestCase) {
				for _, tc := range tests {
					prog, err := minij.Parse(tk.FixedSource + "\n" + tc.Source)
					if err != nil {
						continue
					}
					if err := minij.Check(prog); err != nil {
						continue
					}
					var sites []*contract.Site
					for _, sem := range sems {
						sites = append(sites, contract.Match(sem, prog)...)
					}
					runner := concolic.NewRunner(prog, sites, interp.Options{})
					_ = runner.RunStatic(tc.Name, tc.Class, tc.Method)
					for _, h := range runner.Hits {
						if h.ConcreteChecker == concolic.TriFalse {
							t.Errorf("%s/%s/%s: fixed version reached %s in violating state",
								cs.ID, tk.ID, tc.Name, h.Site)
						}
					}
				}
			}
			runTests(tk.RegressionTests)
		}
	}
}
