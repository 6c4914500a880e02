package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/faultinject"
	"lisa/internal/interp"
	"lisa/internal/smt"
)

// Budget bounds one assertion run. The zero value imposes no deadlines and
// keeps the per-package defaults for node and step ceilings, so existing
// callers behave exactly as before.
type Budget struct {
	// RunTimeout caps the whole run's wall clock (0 = none). The run
	// context it derives is threaded through every stage; jobs that
	// outlive it fail with reason "timeout" or "cancelled" instead of
	// hanging the gate.
	RunTimeout time.Duration
	// JobTimeout caps each contained job — one structural scan, one
	// per-site static stage, one per-semantic replay (0 = none).
	JobTimeout time.Duration
	// SolverNodes caps DPLL search nodes per SMT query
	// (0 = smt.DefaultMaxNodes).
	SolverNodes int
	// StepBudget caps interpreter statements per test replay
	// (0 = interp.DefaultStepBudget).
	StepBudget int
}

// RunContext derives the run-wide context from parent (Background when
// nil), applying RunTimeout when set. The caller owns the cancel func.
func (b Budget) RunContext(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	if b.RunTimeout > 0 {
		return context.WithTimeout(parent, b.RunTimeout)
	}
	return context.WithCancel(parent)
}

// jobContext derives one job's context, applying JobTimeout when set.
func (b Budget) jobContext(parent context.Context) (context.Context, context.CancelFunc) {
	if b.JobTimeout > 0 {
		return context.WithTimeout(parent, b.JobTimeout)
	}
	return context.WithCancel(parent)
}

// solverLimits are the SMT query limits every job of this engine runs
// under: the job context, the configured node ceiling, and the engine's
// private solver cache when it has one.
func (e *Engine) solverLimits(ctx context.Context) smt.Limits {
	return smt.Limits{Ctx: ctx, MaxNodes: e.Budget.SolverNodes, Cache: e.Solver}
}

// Failure reasons, in decreasing order of surprise: a panic is a contained
// crash, a timeout/cancellation is the budget runtime working as designed,
// a budget failure is a resource ceiling (solver nodes, interpreter
// steps), and an error is any other stage failure.
const (
	FailPanic     = "panic"
	FailTimeout   = "timeout"
	FailCancelled = "cancelled"
	FailBudget    = "budget"
	FailError     = "error"
)

// JobFailure records one contained job failure. It is merged into the
// semantic's report deterministically — the same jobs fail with the same
// reasons at any worker count — and turns the semantic's outcome
// INCONCLUSIVE rather than letting partial results pose as PASS.
type JobFailure struct {
	// Job is the stable job name ("structural:<sem>", "site:<sem>#<i>",
	// "dynamic:<sem>").
	Job string
	// Semantic is the owning contract's ID.
	Semantic string
	// Reason is one of the Fail* constants.
	Reason string
	// Detail is a deterministic one-line description (rendered in
	// reports, so it must not embed wall-clock or addresses).
	Detail string
	// Stack is the goroutine stack captured at a panic. It is kept for
	// logs and debugging but excluded from Render: stacks are
	// nondeterministic across runs and worker counts.
	Stack string
}

// String renders the failure without the stack.
func (f *JobFailure) String() string {
	return fmt.Sprintf("job %s %s: %s", f.Job, f.Reason, f.Detail)
}

// Job names shared by the sequential loop and the scheduler: panic
// containment, caching, and fault injection all key on them, so both
// execution strategies must decompose a run into identically named jobs.

// JobNameStructural names a semantic's structural-scan job.
func JobNameStructural(semID string) string { return "structural:" + semID }

// JobNameSite names the static-path job of a semantic's i-th matched site
// (in MatchSites order).
func JobNameSite(semID string, i int) string { return fmt.Sprintf("site:%s#%d", semID, i) }

// JobNameDynamic names a semantic's test-replay job.
func JobNameDynamic(semID string) string { return "dynamic:" + semID }

// ExecJob runs f as a contained job: a panic inside f is recovered into a
// JobFailure instead of killing the process, errors are classified by
// reason, and the job context enforces Budget.JobTimeout. A nil return
// means the job completed and its results are authoritative; a non-nil
// return means the caller must discard partial results (the job wrappers
// below do) and record the failure.
//
// ExecJob also hosts the "job:<name>" fault-injection point (Panic, Slow,
// and Budget kinds).
func (e *Engine) ExecJob(ctx context.Context, name, semID string, f func(context.Context) error) (fail *JobFailure) {
	jctx, cancel := e.Budget.jobContext(ctx)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			fail = &JobFailure{
				Job: name, Semantic: semID, Reason: FailPanic,
				Detail: fmt.Sprint(r), Stack: string(debug.Stack()),
			}
		}
	}()
	if faultinject.Armed() {
		switch k, ok := faultinject.At("job:" + name); {
		case ok && k == faultinject.Panic:
			panic("faultinject: job " + name)
		case ok && k == faultinject.Slow:
			// A job that never finishes. Park on the job deadline; a job
			// with no deadline configured reports the timeout immediately
			// instead of deadlocking the worker pool.
			if _, has := jctx.Deadline(); has {
				<-jctx.Done()
			}
			return &JobFailure{Job: name, Semantic: semID, Reason: FailTimeout, Detail: "job deadline exceeded"}
		case ok && k == faultinject.Budget:
			return &JobFailure{Job: name, Semantic: semID, Reason: FailBudget, Detail: smt.ErrBudget.Error()}
		}
	}
	err := f(jctx)
	if err == nil {
		return nil
	}
	reason, detail := classifyJobError(err)
	return &JobFailure{Job: name, Semantic: semID, Reason: reason, Detail: detail}
}

// classifyJobError maps a stage error to a failure reason and a
// deterministic detail line. Timeout and cancellation details are fixed
// text: the triggering instant is wall-clock-dependent, so the report must
// not leak it.
func classifyJobError(err error) (reason, detail string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout, "job deadline exceeded"
	case errors.Is(err, context.Canceled):
		return FailCancelled, "run cancelled"
	case errors.Is(err, smt.ErrBudget), errors.Is(err, interp.ErrStepBudget), errors.Is(err, interp.ErrStackDepth):
		return FailBudget, err.Error()
	default:
		return FailError, err.Error()
	}
}

// StructuralJob runs the structural stage for sem as a contained job. The
// returned report is never nil: on failure it is a fresh, empty report
// carrying the failure, so a crashed scan degrades to INCONCLUSIVE
// identically in sequential and scheduled runs.
func (e *Engine) StructuralJob(rctx context.Context, ctx *AssertContext, name string, sem *contract.Semantic, tm StageTimings) *SemanticReport {
	var sr *SemanticReport
	fail := e.ExecJob(rctx, name, sem.ID, func(jctx context.Context) error {
		var err error
		if sr, err = e.StructuralReport(jctx, ctx, sem, tm); err != nil {
			return err
		}
		// A scan cut short by cancellation is a failed job, not a clean
		// report with silently fewer confirmations.
		return jctx.Err()
	})
	if fail != nil || sr == nil {
		sr = &SemanticReport{Semantic: sem, SanityOK: true}
	}
	if fail != nil {
		sr.Failures = append(sr.Failures, fail)
	}
	return sr
}

// SiteJob runs the static-path stage for one planned site as a contained
// job. On failure the site's partial paths are cleared and the tree marked
// truncated, so both execution strategies render the same degraded site.
func (e *Engine) SiteJob(rctx context.Context, ctx *AssertContext, name string, siteRep *SiteReport, tm StageTimings) *JobFailure {
	return e.UnitSiteJob(rctx, ctx, name, siteRep, nil, tm)
}

// UnitSiteJob is SiteJob for one site of a unit (SiteUnits): tops holds the
// chain tops the unit's earlier site jobs left, and nil keeps none. Every
// job given one holder must be a site of that unit, run by this engine over
// ctx: the holder does not check the method, chains or options it was
// filled under. A failed job empties tops, so a prefix that a deadline or a
// panic cut short never serves the unit's next site.
func (e *Engine) UnitSiteJob(rctx context.Context, ctx *AssertContext, name string, siteRep *SiteReport, tops *concolic.ChainTops, tm StageTimings) *JobFailure {
	fail := e.ExecJob(rctx, name, siteRep.Site.Semantic.ID, func(jctx context.Context) error {
		return e.SitePaths(jctx, ctx, siteRep, tops, tm)
	})
	if fail != nil {
		siteRep.Paths = nil
		siteRep.TreeTruncated = true
		if tops != nil {
			*tops = concolic.ChainTops{}
		}
	}
	return fail
}

// SiteUnits splits a semantic's sites, in match order, into units: the runs
// of consecutive sites of one method (MatchSites sorts sites by method),
// which share every chain. site returns an element's site. A unit's site
// jobs run in order on one goroutine and share the holder UnitTops gives
// them, so only the first executed job walks the caller chains. The
// sequential loop and the scheduler's wave both run sites in these units.
func SiteUnits[T any](sites []T, site func(T) *contract.Site) [][]T {
	var units [][]T
	for i := 0; i < len(sites); {
		j := i + 1
		for j < len(sites) && site(sites[j]).Method == site(sites[i]).Method {
			j++
		}
		units = append(units, sites[i:j:j])
		i = j
	}
	return units
}

// UnitTops returns the chain-top holder of a unit of n site jobs. It
// belongs to the unit's run alone and must never reach a report, a plan or
// a cache entry. A unit of one site gets none: no later site could use the
// tops, so its walk streams as SiteJob's does and keeps only the current
// chain's prefix live.
func UnitTops(n int) *concolic.ChainTops {
	if n < 2 {
		return nil
	}
	return &concolic.ChainTops{}
}

// DynamicJob runs the per-semantic replay stage as a contained job,
// returning the number of tests replayed. On failure every dynamic overlay
// (selected tests, coverage, dynamic verdicts, post violations) is
// discarded: partial replay output depends on where the failure struck, so
// only a clean job may contribute dynamic results.
func (e *Engine) DynamicJob(rctx context.Context, ctx *AssertContext, name string, sr *SemanticReport, tm StageTimings) (int, *JobFailure) {
	testsRun := 0
	fail := e.ExecJob(rctx, name, sr.Semantic.ID, func(jctx context.Context) error {
		n, err := e.DynamicReplay(jctx, ctx, sr, tm)
		testsRun = n
		return err
	})
	if fail != nil {
		testsRun = 0
		for _, siteRep := range sr.Sites {
			siteRep.SelectedTests = nil
			for _, p := range siteRep.Paths {
				p.CoveredBy = nil
				p.DynamicVerdicts = nil
				p.PostViolatedBy = nil
			}
		}
	}
	return testsRun, fail
}
