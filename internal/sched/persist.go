package sched

import (
	"strings"

	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/minij"
	"lisa/internal/smt"
)

// Disk-tier namespaces, one per job kind, versioned so an encoding change
// reads as a clean miss instead of a decode failure. Site and replay
// records moved to v2 when an inherited guard began to carry its mark
// once: their guard text (and the selection feature built from it) would
// otherwise render a doubled mark walked before that change. They moved to
// v3 when a slot operand whose value the frame knows began to bind to its
// path: a record walked before that change lacks the binding and the
// constant's fact, and its replay attributes no hit to such a path.
const (
	siteNamespace       = "fp.site.v3"
	structuralNamespace = "fp.str.v2"
	dynamicNamespace    = "fp.dyn.v3"
)

// --- record shapes --------------------------------------------------------
//
// Cached results hold pointers into a run's AST (sites, methods,
// statements) and solver formulas, none of which can be persisted directly.
// The records below flatten them to canonical text and stable anchors
// (qualified method names, statement IDs, source positions), and the decode
// side re-anchors onto the current run's program. Every anchor is verified:
// a formula must re-render to the exact persisted text, a method or
// statement must resolve unambiguously. Any mismatch makes the whole record
// a miss — a stale or corrupt record must never produce a silently wrong
// report.

type guardRecord struct {
	Guard string `json:"guard"`
	Taken bool   `json:"taken"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
}

type pathRecord struct {
	Cond           string            `json:"cond,omitempty"`
	FullCond       string            `json:"fullCond,omitempty"`
	Bindings       map[string]string `json:"bindings,omitempty"`
	Guards         []guardRecord     `json:"guards,omitempty"`
	Verdict        int               `json:"verdict"`
	CoveredBy      []string          `json:"coveredBy,omitempty"`
	DynVerdicts    map[string]int    `json:"dynVerdicts,omitempty"`
	PostViolatedBy []string          `json:"postViolatedBy,omitempty"`
}

type siteRecord struct {
	Truncated bool         `json:"truncated,omitempty"`
	Paths     []pathRecord `json:"paths"`
}

type violationRecord struct {
	Rule    string   `json:"rule"`
	Method  string   `json:"method"`
	Stmt    int      `json:"stmt"`
	Builtin string   `json:"builtin,omitempty"`
	Chain   []string `json:"chain,omitempty"`
}

type structuralRecord struct {
	SanityOK    bool              `json:"sanityOK"`
	Violations  []violationRecord `json:"violations,omitempty"`
	ConfirmedBy map[int][]string  `json:"confirmedBy,omitempty"`
}

// --- formulas -------------------------------------------------------------

// renderFormula flattens a formula to its canonical text; nil renders as
// the empty string.
func renderFormula(f smt.Formula) string {
	if f == nil {
		return ""
	}
	return f.String()
}

// parseFormula is the inverse, with the round trip verified: the re-parsed
// formula must render byte-identically to the persisted text, so rendering
// cached reports can never drift from what the original run produced.
func parseFormula(src string) (smt.Formula, bool) {
	if src == "" {
		return nil, true
	}
	f, err := smt.ParsePredicate(src)
	if err != nil || f.String() != src {
		return nil, false
	}
	return f, true
}

func encodeVerdicts(m map[string]concolic.Verdict) map[string]int {
	if m == nil {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = int(v)
	}
	return out
}

func decodeVerdicts(m map[string]int) map[string]concolic.Verdict {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]concolic.Verdict, len(m))
	for k, v := range m {
		out[k] = concolic.Verdict(v)
	}
	return out
}

// --- site records ---------------------------------------------------------

func encodeSite(siteRep *core.SiteReport) *siteRecord {
	rec := &siteRecord{Truncated: siteRep.TreeTruncated, Paths: make([]pathRecord, len(siteRep.Paths))}
	for i, p := range siteRep.Paths {
		pr := pathRecord{
			Verdict:        int(p.Verdict),
			CoveredBy:      p.CoveredBy,
			DynVerdicts:    encodeVerdicts(p.DynamicVerdicts),
			PostViolatedBy: p.PostViolatedBy,
		}
		if sp := p.Static; sp != nil {
			pr.Cond = renderFormula(sp.Cond)
			pr.FullCond = renderFormula(sp.FullCond)
			pr.Bindings = sp.Bindings
			pr.Guards = make([]guardRecord, len(sp.Guards))
			for j, g := range sp.Guards {
				pr.Guards[j] = guardRecord{Guard: g.Guard, Taken: g.Taken, Line: g.Pos.Line, Col: g.Pos.Col}
			}
		}
		rec.Paths[i] = pr
	}
	return rec
}

// decodeSite rebuilds a site record's memory entry; a hit on it is served
// like any memory hit, onto the job's site report, which holds the current
// run's site.
func decodeSite(rec *siteRecord) (*siteEntry, bool) {
	paths := make([]*core.PathReport, len(rec.Paths))
	for i, pr := range rec.Paths {
		cond, ok := parseFormula(pr.Cond)
		if !ok {
			return nil, false
		}
		full, ok := parseFormula(pr.FullCond)
		if !ok {
			return nil, false
		}
		sp := &concolic.StaticPath{Cond: cond, FullCond: full, Bindings: pr.Bindings}
		if len(pr.Guards) > 0 {
			sp.Guards = make([]concolic.GuardStep, len(pr.Guards))
			for j, g := range pr.Guards {
				sp.Guards[j] = concolic.GuardStep{Guard: g.Guard, Taken: g.Taken, Pos: minij.Pos{Line: g.Line, Col: g.Col}}
			}
		}
		paths[i] = &core.PathReport{
			Static:          sp,
			Verdict:         concolic.Verdict(pr.Verdict),
			CoveredBy:       pr.CoveredBy,
			DynamicVerdicts: decodeVerdicts(pr.DynVerdicts),
			PostViolatedBy:  pr.PostViolatedBy,
		}
	}
	return &siteEntry{paths: paths, truncated: rec.Truncated}, true
}

// --- structural records ---------------------------------------------------

// encodeStructural flattens a structural report into a record that shares
// nothing with it, so the memory tier can keep the record.
func encodeStructural(sr *core.SemanticReport) *structuralRecord {
	rec := &structuralRecord{SanityOK: sr.SanityOK, ConfirmedBy: cloneConfirmed(sr.StructuralConfirmedBy)}
	for _, v := range sr.Structural {
		vr := violationRecord{Rule: v.Rule, Builtin: v.Builtin, Chain: cloneStrings(v.Chain), Stmt: -1}
		if v.Method != nil {
			vr.Method = v.Method.FullName()
		}
		if v.Stmt != nil {
			vr.Stmt = v.Stmt.ID()
		}
		rec.Violations = append(rec.Violations, vr)
	}
	return rec
}

// decodeStructural re-anchors the violations onto the current system
// program: methods by qualified name, statements by ID (stable for a given
// canonical program, which the fingerprint pins). The report shares nothing
// with the record, which a memory-tier entry keeps.
func decodeStructural(rec *structuralRecord, sem *contract.Semantic, prog *minij.Program) (*core.SemanticReport, bool) {
	sr := &core.SemanticReport{Semantic: sem, SanityOK: rec.SanityOK, StructuralConfirmedBy: cloneConfirmed(rec.ConfirmedBy)}
	for _, vr := range rec.Violations {
		v := &contract.StructuralViolation{Rule: vr.Rule, Builtin: vr.Builtin, Chain: cloneStrings(vr.Chain)}
		if vr.Method != "" {
			class, name, _ := strings.Cut(vr.Method, ".")
			m := prog.Method(class, name)
			if m == nil {
				return nil, false
			}
			v.Method = m
		}
		if vr.Stmt >= 0 {
			stmt := prog.StmtByID(vr.Stmt)
			if stmt == nil {
				return nil, false
			}
			v.Stmt = stmt
		}
		sr.Structural = append(sr.Structural, v)
	}
	return sr, true
}

// cloneConfirmed copies a finding-index → confirming-tests map.
func cloneConfirmed(m map[int][]string) map[int][]string {
	if m == nil {
		return nil
	}
	out := make(map[int][]string, len(m))
	for i, tests := range m {
		out[i] = cloneStrings(tests)
	}
	return out
}
