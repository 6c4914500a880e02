package sched

import (
	"fmt"
	"sort"
	"strings"

	"lisa/internal/callgraph"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/minij"
	"lisa/internal/program"
)

// Fingerprints are content hashes over everything a job's result depends
// on. Two runs that hash a job to the same fingerprint are guaranteed the
// same verdicts, coverage, and path conditions, so the cached result can be
// served instead of re-executing. All inputs are canonical (AST pretty-
// printing, formula rendering) — never source positions or whitespace — so
// a reformatted file does not invalidate anything. Every fingerprint is
// framed by program.HashParts, which the engine's corpus digest
// (core.AssertContext.CorpusDigest) shares.

// semFingerprint identifies a semantic by its checker content: the <P> s
// <Q> contract (formula text, target pattern, slot bindings) or the
// structural rule and its scope.
func semFingerprint(sem *contract.Semantic) string {
	parts := []string{"sem", sem.ID, sem.Kind.String()}
	if sem.Kind == contract.StructuralKind {
		parts = append(parts, sem.Structural.Name(), strings.Join(sem.Structural.Scope(), ","))
	} else {
		pre, post := "", ""
		if sem.Pre != nil {
			pre = sem.Pre.String()
		}
		if sem.Post != nil {
			post = sem.Post.String()
		}
		binds := make([]string, 0, len(sem.Target.Bind))
		for slot, idx := range sem.Target.Bind {
			binds = append(binds, fmt.Sprintf("%s=%d", slot, idx))
		}
		sort.Strings(binds)
		parts = append(parts, pre, post, sem.Target.Callee, sem.Target.Within, strings.Join(binds, ","))
	}
	return program.HashParts(parts...)
}

// staticEngineFP captures the engine options that change static-stage
// results: the ablation switches and the solver node ceiling. Prefix
// pruning keeps a subtree whose query the ceiling cuts short, so a ceiling
// can lengthen a site's path list while still deciding every path it
// keeps. "max=0" is the path bound the engine no longer has; it stays, and
// an unset ceiling adds nothing, so persisted site fingerprints keep their
// keys.
func staticEngineFP(e *core.Engine) string {
	fp := fmt.Sprintf("max=0 noprune=%v intra=%v", e.NoPrune, e.IntraOnly)
	if e.Budget.SolverNodes > 0 {
		fp += fmt.Sprintf(" nodes=%d", e.Budget.SolverNodes)
	}
	return fp
}

// dynamicEngineFP captures the engine options that change test selection
// and replay.
func dynamicEngineFP(e *core.Engine) string {
	return fmt.Sprintf("topk=%d runall=%v", e.TestTopK, e.RunAllTests)
}

// siteClosure returns the methods whose content the site's static stage can
// read, sorted by qualified name: the target method, every method on every
// entry→site chain (interprocedural condition inheritance), and everything
// reachable from those (getter normalization inlines callee bodies).
func siteClosure(g *callgraph.Graph, siteRep *core.SiteReport) []*minij.Method {
	roots := []*minij.Method{siteRep.Site.Method}
	for _, ch := range siteRep.Chains {
		roots = append(roots, callgraph.MethodsOnPath(ch, siteRep.Site.Method)...)
	}
	reach := g.Reachable(roots)
	out := make([]*minij.Method, 0, len(reach))
	for m := range reach {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// siteFingerprint hashes one (semantic × site) static job: the checker
// formula, the static engine options (staticFP), the target statement
// and slot operands, the caller-chain slice of the call graph (each chain
// rendered by callgraph.Path.String, and whether the tree was truncated),
// and the canonical AST of every method the stage can read — via methodFP,
// the analysis snapshot's method digests, taken when it rendered its
// program, so no site re-hashes a method's text. occ disambiguates
// canonically identical target statements within the same method.
func siteFingerprint(semFP, staticFP string, site *contract.Site, truncated bool, chains []string, closure []*minij.Method, occ int, methodFP func(*minij.Method) string) string {
	binds := make([]string, 0, len(site.Bindings))
	for slot, expr := range site.Bindings {
		binds = append(binds, slot+"="+minij.CanonExpr(expr))
	}
	sort.Strings(binds)
	parts := []string{
		"site", semFP, staticFP,
		fmt.Sprintf("occ=%d binderr=%v", occ, site.BindErr != nil),
		minij.CanonStmt(site.Stmt),
		strings.Join(binds, ","),
		fmt.Sprintf("truncated=%v", truncated),
	}
	parts = append(parts, chains...)
	for _, m := range closure {
		parts = append(parts, methodFP(m))
	}
	return program.HashParts(parts...)
}

// dynamicFingerprint hashes one per-semantic replay job. Replayed tests
// execute arbitrary system code, so the whole system program participates,
// along with the semantic's site fingerprints (replay attributes hits to
// those static paths) and the test corpus. Test selection ranks tests
// against path features that end in the rule's description
// (testsel.PathFeature), which semFP leaves out, so the description is
// hashed here too: a rule re-registered with new wording re-replays.
func dynamicFingerprint(e *core.Engine, sem *contract.Semantic, semFP, progFP, corpusFP string, siteFPs []string) string {
	parts := make([]string, 0, 6+len(siteFPs))
	parts = append(parts, "dyn", semFP, sem.Description, dynamicEngineFP(e), progFP, corpusFP)
	parts = append(parts, siteFPs...)
	return program.HashParts(parts...)
}

// structuralFingerprint hashes a structural job: the rule plus the whole
// system program it scans (and the corpus, for runtime confirmation).
func structuralFingerprint(semFP, progFP, corpusFP string) string {
	return program.HashParts("structural", semFP, progFP, corpusFP)
}
