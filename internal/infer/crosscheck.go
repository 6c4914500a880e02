package infer

import (
	"fmt"

	"lisa/internal/callgraph"
	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/interp"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// CrossCheckResult reports whether a mined semantic is grounded in actual
// system behavior — the §5 defence against LLM non-determinism and
// hallucination.
type CrossCheckResult struct {
	SemanticID string
	// Grounded: the rule matches at least one site in the post-patch code
	// and every static path to each site verifies (the patched system
	// actually upholds the rule).
	Grounded bool
	// Confirmed: at least one regression test dynamically executed a site
	// and the recorded condition verified.
	Confirmed bool
	Reason    string
}

// CrossCheck validates a mined semantic against the ticket's fixed source
// and regression tests. A rule that the just-patched system itself violates
// is hallucinated (flipped or fabricated conditions land here); a rule that
// matches no site at all is ungrounded.
func CrossCheck(sem *contract.Semantic, tk *ticket.Ticket) CrossCheckResult {
	res := CrossCheckResult{SemanticID: sem.ID}
	if sem.Kind == contract.StructuralKind {
		prog, err := compile(tk.FixedSource)
		if err != nil {
			res.Reason = fmt.Sprintf("fixed source does not compile: %v", err)
			return res
		}
		if vs := sem.Structural.Check(prog); len(vs) > 0 {
			res.Reason = fmt.Sprintf("patched code still violates the rule at %d site(s)", len(vs))
			return res
		}
		res.Grounded = true
		res.Confirmed = true
		res.Reason = "structural rule holds on the patched code"
		return res
	}

	prog, err := compile(tk.FixedSource)
	if err != nil {
		res.Reason = fmt.Sprintf("fixed source does not compile: %v", err)
		return res
	}
	sites := contract.Match(sem, prog)
	if len(sites) == 0 {
		res.Reason = "rule matches no target statement in the patched code"
		return res
	}
	graph := callgraph.Build(prog)
	// Every solver query of the check goes through the process-wide cache,
	// as compile's loads go through the process-wide snapshot cache.
	lim := smt.Limits{Cache: smt.DefaultQueryCache()}
	for _, site := range sites {
		tree := graph.ExecutionTree(site.Method, callgraph.TreeOptions{})
		chains := tree.Paths
		if len(chains) == 0 {
			chains = []callgraph.Path{nil}
		}
		perChain, _ := concolic.SiteStaticPaths(prog, site, chains, concolic.Options{Lim: lim}, nil)
		for _, paths := range perChain {
			for _, p := range paths {
				if v, _ := concolic.CheckStaticPathLim(sem, p, lim); v == concolic.VerdictViolation {
					res.Reason = fmt.Sprintf("patched code contradicts the rule: %s on path %s of %s",
						v, p, site)
					return res
				}
			}
		}
	}
	res.Grounded = true
	res.Reason = "all static paths in the patched code verify"

	// Dynamic confirmation via the ticket's regression tests.
	if len(tk.RegressionTests) > 0 {
		full := tk.FixedSource
		for _, tc := range tk.RegressionTests {
			full += "\n" + tc.Source
		}
		tprog, err := compile(full)
		if err != nil {
			res.Reason += fmt.Sprintf("; tests do not compile: %v", err)
			return res
		}
		tsites := contract.Match(sem, tprog)
		runner := concolic.NewRunner(tprog, tsites, interp.Options{})
		for _, tc := range tk.RegressionTests {
			// A regression test may legitimately end in a caught or
			// expected exception; hits recorded before unwind still count.
			_ = runner.RunStatic(tc.Name, tc.Class, tc.Method)
		}
		for _, h := range runner.Hits {
			if h.VerdictLim(lim) == concolic.VerdictVerified {
				res.Confirmed = true
				res.Reason += "; dynamically confirmed by " + h.TestName
				break
			}
		}
	}
	return res
}

// FilterGrounded applies cross-checking to a result, returning only the
// semantics that survive (the cross-checked pipeline of the reliability
// experiment).
func FilterGrounded(res *Result, tk *ticket.Ticket) (kept []*contract.Semantic, rejected []CrossCheckResult) {
	for _, sem := range res.Semantics {
		cc := CrossCheck(sem, tk)
		if cc.Grounded {
			kept = append(kept, sem)
		} else {
			rejected = append(rejected, cc)
		}
	}
	return kept, rejected
}
