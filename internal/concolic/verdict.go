package concolic

import (
	"errors"

	"lisa/internal/contract"
	"lisa/internal/smt"
)

// Verdict classifies one path against a semantic.
type Verdict int

// Verdicts.
const (
	// VerdictVerified: the path condition entails the checker; the path
	// cannot violate the semantic.
	VerdictVerified Verdict = iota
	// VerdictViolation: the path condition is satisfiable together with
	// the checker's complement — some state reaching the target on this
	// path breaks the rule (including by omitting a required check).
	VerdictViolation
	// VerdictUnknown: slot operands could not be normalized to paths;
	// the developer must review.
	VerdictUnknown
	// VerdictInconclusive: the check itself degraded — the solver ran out
	// of budget or the run was cancelled — so the path is neither verified
	// nor violating. Distinct from PASS/VIOLATED by construction: the gate
	// policy (fail-closed/fail-open) decides how to treat it.
	VerdictInconclusive
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictVerified:
		return "VERIFIED"
	case VerdictViolation:
		return "VIOLATION"
	case VerdictInconclusive:
		return "INCONCLUSIVE"
	}
	return "UNKNOWN"
}

// CheckerFor instantiates a semantic's precondition over concrete operand
// paths (one per slot). ok is false when any slot lacks a binding.
func CheckerFor(sem *contract.Semantic, bindings map[string]string) (smt.Formula, bool) {
	f := sem.Pre
	for slot := range sem.Target.Bind {
		path, ok := bindings[slot]
		if !ok {
			return nil, false
		}
		f = smt.RenameRoot(f, slot, path)
	}
	return f, true
}

// CheckPathLim applies the paper's complement check under lim: the path
// violates the semantic iff pathCond ∧ ¬checker is satisfiable. Conditions
// missing from pathCond are unconstrained, so an omitted guard (e.g. a
// forgotten s.ttl > 0 test) surfaces as a violation rather than passing
// silently. Budget exhaustion is an expected degradation and yields
// (VerdictInconclusive, nil); a context error yields
// (VerdictInconclusive, err) so the caller can abandon the whole run.
func CheckPathLim(pathCond, checker smt.Formula, lim smt.Limits) (Verdict, error) {
	sat, err := smt.SATLim(smt.NewAnd(pathCond, smt.Complement(checker)), lim)
	if err != nil {
		if errors.Is(err, smt.ErrBudget) {
			return VerdictInconclusive, nil
		}
		return VerdictInconclusive, err
	}
	if sat {
		return VerdictViolation, nil
	}
	return VerdictVerified, nil
}

// CheckStaticPathLim computes the verdict of one static path enumerated
// for a site of sem under lim.
func CheckStaticPathLim(sem *contract.Semantic, p *StaticPath, lim smt.Limits) (Verdict, error) {
	checker, ok := CheckerFor(sem, p.Bindings)
	if !ok {
		return VerdictUnknown, nil
	}
	return CheckPathLim(p.Cond, checker, lim)
}
