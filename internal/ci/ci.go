// Package ci implements the enforcement end of the vision: every failure,
// once fixed, becomes an executable contract that a CI/CD pipeline asserts
// against each proposed change, so the same class of mistake cannot merge
// again.
package ci

import (
	"errors"
	"fmt"
	"strings"

	"lisa/internal/concolic"
	"lisa/internal/core"
	"lisa/internal/diffutil"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/ticket"
)

// Change is one proposed code change submitted to the gate.
type Change struct {
	// Author and Summary describe the change (for the gate log).
	Author  string
	Summary string
	// NewSource is the full system source after the change.
	NewSource string
	// OldSource, when non-empty, lets the gate include a patch digest in
	// its report.
	OldSource string
}

// Finding is one gate finding.
type Finding struct {
	Severity string // "BLOCK" or "WARN"
	Text     string
}

// Result is the gate decision for one change.
type Result struct {
	Pass     bool
	Findings []Finding
	Report   *core.AssertReport
	// DiffStat summarizes the change when OldSource was provided.
	DiffStat string
	// Asserted and Skipped partition the registry for this run: Skipped
	// contracts had every job served from the scheduler's fingerprint cache
	// (their previous verdicts are still valid); Asserted contracts
	// executed at least one job. Sequential gates assert everything.
	Asserted int
	Skipped  int
	// Sched carries the scheduler run stats when the gate was scheduled.
	Sched *sched.Stats
}

// GateOptions configure how the gate executes the assertion run.
type GateOptions struct {
	// Scheduler, when set, runs the assertion through the parallel
	// incremental scheduler instead of the sequential engine loop. The
	// scheduler's cache persists across gates, so successive changes reuse
	// unaffected results.
	Scheduler *sched.Scheduler
	// Workers is the scheduler pool width (0 = GOMAXPROCS).
	Workers int
	// Incremental computes the dirty set against Change.OldSource.
	Incremental bool
	// FailOpen downgrades INCONCLUSIVE outcomes (contained job failures,
	// budget-exhausted verdicts, corrupted snapshots) from BLOCK to WARN.
	// The default — fail closed — blocks: a gate that could not finish
	// checking a contract must not let the change merge on partial
	// evidence.
	FailOpen bool
}

// inconclusiveSeverity maps the gate policy to a finding severity.
func inconclusiveSeverity(opts GateOptions) string {
	if opts.FailOpen {
		return "WARN"
	}
	return "BLOCK"
}

// Gate asserts every contract in the engine's registry against the changed
// source, sequentially. Violations block the change; uncovered paths and
// failed sanity checks surface as warnings for developer verdict (per §3.2,
// the developer decides whether missing coverage means a missed test or a
// missed rule).
func Gate(engine *core.Engine, ch Change, tests []ticket.TestCase) (*Result, error) {
	return GateWith(engine, ch, tests, GateOptions{})
}

// GateWith is Gate with an execution strategy. The decision and findings
// are identical for every strategy — the scheduler's merged report is
// byte-compatible with the sequential run — only wall-clock and the
// asserted/skipped split change. The proposed change and (when present)
// the pre-change head are loaded as content-addressed snapshots exactly
// once, shared by every job of the run: the dirty-set diff, the site
// fingerprints, and the assertion stages all consume the same compilation.
func GateWith(engine *core.Engine, ch Change, tests []ticket.TestCase, opts GateOptions) (*Result, error) {
	newSnap, cerr := engine.LoadSnapshot(ch.NewSource)
	if cerr != nil {
		// A change that does not compile or resolve is itself a block.
		return &Result{
			Pass:     false,
			Findings: []Finding{{Severity: "BLOCK", Text: fmt.Sprintf("change does not build: system source: %v", cerr)}},
		}, nil
	}
	var base *program.Snapshot
	if ch.OldSource != "" {
		// An unloadable base is tolerated: the scheduler's dirty set then
		// conservatively marks everything dirty.
		base, _ = engine.LoadSnapshot(ch.OldSource)
	}
	var report *core.AssertReport
	var stats *sched.Stats
	var err error
	if opts.Scheduler != nil {
		report, stats, err = opts.Scheduler.AssertSnapshot(engine, newSnap, tests, sched.Options{
			Workers:     opts.Workers,
			Incremental: opts.Incremental && ch.OldSource != "",
			Base:        base,
		})
	} else {
		report, err = engine.AssertSnapshot(newSnap, tests)
	}
	if err != nil {
		if errors.Is(err, program.ErrMutated) {
			// A corrupted snapshot is not the change's fault: the gate
			// could not evaluate the contracts at all. Policy decides —
			// fail closed blocks, fail open warns and passes.
			sev := inconclusiveSeverity(opts)
			return &Result{
				Pass:     opts.FailOpen,
				Findings: []Finding{{Severity: sev, Text: fmt.Sprintf("INCONCLUSIVE: snapshot integrity check failed: %v", err)}},
			}, nil
		}
		// A change that does not compile or resolve is itself a block.
		return &Result{
			Pass:     false,
			Findings: []Finding{{Severity: "BLOCK", Text: fmt.Sprintf("change does not build: %v", err)}},
		}, nil
	}
	res := &Result{Report: report, Sched: stats}
	if stats != nil {
		res.Asserted = stats.AssertedSemantics
		res.Skipped = stats.SkippedSemantics
	} else {
		res.Asserted = engine.Registry.Len()
	}
	if ch.OldSource != "" {
		var st diffutil.Stats
		if base != nil {
			// The memoized diff the scheduler's dirty set also reads.
			st = sched.ComputeDirtySnapshots(base, newSnap).Stat
		} else {
			st = diffutil.Count(ch.OldSource, ch.NewSource)
		}
		res.DiffStat = fmt.Sprintf("+%d -%d lines", st.Added, st.Removed)
	}
	for _, v := range report.Violations() {
		res.Findings = append(res.Findings, Finding{Severity: "BLOCK", Text: v})
	}
	for _, sr := range report.Semantics {
		if sr.Outcome() == core.OutcomeInconclusive {
			res.Findings = append(res.Findings, Finding{
				Severity: inconclusiveSeverity(opts),
				Text:     fmt.Sprintf("[%s] INCONCLUSIVE: %s", sr.Semantic.ID, inconclusiveDetail(sr)),
			})
		}
		if !sr.SanityOK {
			res.Findings = append(res.Findings, Finding{
				Severity: "WARN",
				Text:     fmt.Sprintf("[%s] sanity check failed: no path verifies the rule anywhere", sr.Semantic.ID),
			})
		}
		for _, site := range sr.Sites {
			for _, p := range site.Paths {
				if p.Verdict == concolic.VerdictUnknown {
					res.Findings = append(res.Findings, Finding{
						Severity: "WARN",
						Text:     fmt.Sprintf("[%s] %s: operand not normalizable; developer review needed", sr.Semantic.ID, site.Site),
					})
				}
				for _, tn := range p.PostViolatedBy {
					res.Findings = append(res.Findings, Finding{
						Severity: "BLOCK",
						Text: fmt.Sprintf("[%s] %s: postcondition violated when replayed by %s",
							sr.Semantic.ID, site.Site, tn),
					})
				}
				if !p.Covered() && !report.StaticOnly && p.Verdict == concolic.VerdictVerified {
					res.Findings = append(res.Findings, Finding{
						Severity: "WARN",
						Text: fmt.Sprintf("[%s] %s path {%s}: no selected test exercises this path",
							sr.Semantic.ID, site.Site, p.Static),
					})
				}
			}
		}
	}
	res.Pass = true
	for _, f := range res.Findings {
		if f.Severity == "BLOCK" {
			res.Pass = false
			break
		}
	}
	return res, nil
}

// inconclusiveDetail renders why a semantic's assertion degraded, in
// deterministic order: contained job failures first (job order), then the
// count of budget-starved path checks.
func inconclusiveDetail(sr *core.SemanticReport) string {
	var parts []string
	for _, f := range sr.Failures {
		parts = append(parts, fmt.Sprintf("job %s failed (%s: %s)", f.Job, f.Reason, f.Detail))
	}
	starved := 0
	for _, site := range sr.Sites {
		for _, p := range site.Paths {
			if p.Verdict == concolic.VerdictInconclusive {
				starved++
			}
		}
	}
	if starved > 0 {
		parts = append(parts, fmt.Sprintf("%d path check(s) exhausted the solver budget", starved))
	}
	if len(parts) == 0 {
		parts = append(parts, "dynamic verdicts degraded")
	}
	return strings.Join(parts, "; ")
}

// Summary renders the gate decision as a short log.
func (r *Result) Summary() string {
	var sb strings.Builder
	if r.Pass {
		sb.WriteString("GATE: PASS")
	} else {
		sb.WriteString("GATE: BLOCKED")
	}
	if r.DiffStat != "" {
		sb.WriteString(" (")
		sb.WriteString(r.DiffStat)
		sb.WriteString(")")
	}
	sb.WriteByte('\n')
	if r.Report != nil {
		fmt.Fprintf(&sb, "  contracts: %d asserted, %d skipped (cached)\n", r.Asserted, r.Skipped)
	}
	if s := r.Sched; s != nil {
		fmt.Fprintf(&sb, "  jobs: %d total, %d executed, %d cache hits (workers=%d)\n",
			s.Jobs, s.Executed, s.CacheHits, s.Workers)
		if s.DiskHits > 0 {
			fmt.Fprintf(&sb, "  store: %d job(s) served from the disk tier\n", s.DiskHits)
		}
		if s.Failures > 0 {
			fmt.Fprintf(&sb, "  failures: %d job(s) contained\n", s.Failures)
		}
		if s.DirtyAll {
			sb.WriteString("  dirty: whole program (change not localizable)\n")
		} else if len(s.DirtyMethods) > 0 {
			fmt.Fprintf(&sb, "  dirty: %s (%d of %d jobs impacted)\n",
				strings.Join(s.DirtyMethods, ", "), s.ImpactedJobs, s.Jobs)
		}
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&sb, "  %-5s %s\n", f.Severity, f.Text)
	}
	return sb.String()
}
