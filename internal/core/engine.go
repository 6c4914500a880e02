// Package core implements the LISA engine: the end-to-end workflow of
// Figure 5. The engine iterates over failure tickets, infers low-level
// semantics from each bundle, optionally cross-checks them against actual
// behavior, registers the survivors as executable contracts, and asserts
// every registered contract across a codebase — statically (execution
// trees + path conditions + the complement check) and dynamically
// (test-driven concolic replay with RAG-style test selection).
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"lisa/internal/callgraph"
	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/infer"
	"lisa/internal/interp"
	"lisa/internal/lru"
	"lisa/internal/minij"
	"lisa/internal/program"
	"lisa/internal/smt"
	"lisa/internal/testsel"
	"lisa/internal/ticket"
)

// Engine is the LISA pipeline.
type Engine struct {
	// Inferencer extracts semantics from tickets (stage 1 of Figure 5).
	Inferencer infer.Inferencer
	// Registry stores the executable contracts.
	Registry *contract.Registry
	// TestTopK is how many tests the selector picks per path (default 3).
	TestTopK int
	// NoPrune disables relevant-variable pruning (ablation).
	NoPrune bool
	// IntraOnly disables interprocedural condition inheritance along
	// execution-tree chains (ablation: guards in callers are then
	// invisible, flagging internal helpers their callers protect).
	IntraOnly bool
	// RunAllTests skips similarity-based selection and replays the whole
	// suite (ablation for the test-selection stage).
	RunAllTests bool
	// Budget bounds assertion runs (deadlines, solver nodes, interpreter
	// steps). The zero value means "no deadlines, package defaults".
	Budget Budget
	// Snapshots is the engine's snapshot cache; New sets it to the
	// process-wide program.DefaultCache. Fault-injection experiments and
	// the daemon set a private cache, so corrupted snapshots never poison
	// other runs and the owner's counters are exact. It must not be nil.
	Snapshots *program.Cache
	// VerifySnapshots re-checks each snapshot against its content address
	// before asserting over it, turning silent cache corruption into an
	// explicit program.ErrMutated failure.
	VerifySnapshots bool
	// Solver is the engine's solver result cache; New sets it to the
	// process-wide smt.DefaultQueryCache, and nil solves every query
	// uncached. A private instance gives exact per-engine query/hit
	// accounting (the daemon's /stats deltas) and can carry its own disk
	// tier.
	Solver *smt.QueryCache

	// testSets holds what this engine derived from each test corpus it
	// asserted with, keyed by corpus digest (see testSet).
	testSetMu sync.Mutex
	testSets  *lru.Cache[string, *testSet]
}

// testSetCapacity bounds an engine's test-set cache. The daemon's case
// engines and the CLI assert one test set per engine, so one entry would
// do; the slack keeps callers that alternate a few suites on one engine
// (experiments, ablations) warm.
const testSetCapacity = 4

// New returns an engine with the deterministic patch analyzer (with
// generalization enabled), an empty registry, and the process-wide
// snapshot and solver caches.
func New() *Engine {
	return &Engine{
		Inferencer: &infer.PatchAnalyzer{Generalize: true},
		Registry:   contract.NewRegistry(),
		TestTopK:   3,
		Snapshots:  program.DefaultCache(),
		Solver:     smt.DefaultQueryCache(),
	}
}

// TicketReport is the outcome of processing one failure ticket.
type TicketReport struct {
	Ticket     *ticket.Ticket
	Result     *infer.Result
	Registered []*contract.Semantic
	Rejected   []infer.CrossCheckResult
	// AlreadyKnown lists semantics equivalent to ones inferred from an
	// earlier ticket — the paper's recurring pattern: the regression
	// violated the same low-level semantic as the original incident.
	AlreadyKnown []*contract.Semantic
}

// ProcessTicket runs inference on a ticket bundle and registers the
// resulting contracts (stages "infer" and "translate" of the workflow).
// Semantics equivalent to an already-registered rule are reported as
// already known rather than registered twice.
func (e *Engine) ProcessTicket(tk *ticket.Ticket) (*TicketReport, error) {
	res, err := e.Inferencer.Infer(tk)
	if err != nil {
		return nil, err
	}
	// Mined semantics are cross-checked against the ticket's fixed source
	// before registering (the §5 defence).
	sems, rejected := infer.FilterGrounded(res, tk)
	rep := &TicketReport{Ticket: tk, Result: res, Rejected: rejected}
	for _, sem := range sems {
		if known := e.findEquivalent(sem); known != nil {
			known.Origin = append(known.Origin, sem.Origin...)
			rep.AlreadyKnown = append(rep.AlreadyKnown, known)
			continue
		}
		if err := e.Registry.Add(sem); err != nil {
			return nil, fmt.Errorf("register %s: %w", sem.ID, err)
		}
		rep.Registered = append(rep.Registered, sem)
	}
	return rep, nil
}

// findEquivalent returns a registered semantic equivalent to sem, if any.
func (e *Engine) findEquivalent(sem *contract.Semantic) *contract.Semantic {
	for _, ex := range e.Registry.All() {
		if ex.Kind != sem.Kind {
			continue
		}
		switch sem.Kind {
		case contract.StructuralKind:
			if ex.Structural.Hazard == sem.Structural.Hazard && slices.Equal(ex.Structural.Scope(), sem.Structural.Scope()) {
				return ex
			}
		case contract.StateKind:
			if ex.Target.Callee != sem.Target.Callee {
				continue
			}
			if !bindingsIntEqual(ex.Target.Bind, sem.Target.Bind) {
				continue
			}
			// Equivalence is asked of the process-wide solver cache, like
			// inference's own queries. A solver failure means equivalence
			// could not be shown; registering the rule separately is the
			// safe direction.
			lim := smt.Limits{Cache: smt.DefaultQueryCache()}
			p, q := canonicalPre(ex), canonicalPre(sem)
			if pq, err := smt.ImpliesLim(p, q, lim); err != nil || !pq {
				continue
			}
			if qp, err := smt.ImpliesLim(q, p, lim); err == nil && qp {
				return ex
			}
		}
	}
	return nil
}

// canonicalPre renames slot roots to their operand positions so two rules
// over differently named slots compare structurally.
func canonicalPre(sem *contract.Semantic) smt.Formula {
	f := sem.Pre
	for slot, idx := range sem.Target.Bind {
		f = smt.RenameRoot(f, slot, fmt.Sprintf("$op%d", idx))
	}
	return f
}

func bindingsIntEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	// Compare the multisets of operand positions.
	counts := map[int]int{}
	for _, v := range a {
		counts[v]++
	}
	for _, v := range b {
		counts[v]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

// PathReport is the assertion outcome of one static path to one site.
type PathReport struct {
	Static  *concolic.StaticPath
	Verdict concolic.Verdict
	// CoveredBy lists tests whose dynamic execution matched this path.
	CoveredBy []string
	// DynamicVerdicts maps test name to its hit verdict on this path; nil
	// until a hit is attributed.
	DynamicVerdicts map[string]concolic.Verdict
	// PostViolatedBy lists tests whose replay reached this path but left
	// the contract's postcondition Q false afterwards.
	PostViolatedBy []string
}

// Covered reports whether any test exercised this path.
func (p *PathReport) Covered() bool { return len(p.CoveredBy) > 0 }

// SiteReport is the assertion outcome of one target-statement site.
type SiteReport struct {
	Site *contract.Site
	// Chains are the entry→site call chains from the execution tree.
	Chains        []callgraph.Path
	TreeTruncated bool
	Paths         []*PathReport
	// SelectedTests are the tests chosen for this site, in rank order.
	SelectedTests []string
}

// SemanticReport is the assertion outcome of one contract.
type SemanticReport struct {
	Semantic   *contract.Semantic
	Sites      []*SiteReport
	Structural []*contract.StructuralViolation
	// StructuralConfirmedBy maps an index into Structural to the tests
	// whose replay ran the rule's hazard while the flagged method held a
	// lock (the runtime-monitor confirmation of a static finding).
	StructuralConfirmedBy map[int][]string
	// SanityOK means at least one path verified — the paper keeps the
	// "fixed" paths in the tree precisely so that a correct rule shows at
	// least one verified path; a rule with none is suspect.
	SanityOK bool
	// Failures are the contained job failures (panics, timeouts, budget
	// exhaustion) recorded while asserting this semantic, in job order.
	Failures []*JobFailure
}

// Per-semantic outcomes. A definite violation outranks degradation; only a
// fully clean semantic is a PASS.
const (
	OutcomeViolated     = "VIOLATED"
	OutcomeInconclusive = "INCONCLUSIVE"
	OutcomePass         = "PASS"
)

// Outcome classifies the semantic. VIOLATED when any structural finding,
// violating static path, or dynamic postcondition violation surfaced.
// Otherwise INCONCLUSIVE when any job failed or any verdict (static or
// dynamic) is INCONCLUSIVE — the run degraded, so the absence of a
// violation proves nothing. Otherwise PASS.
func (sr *SemanticReport) Outcome() string {
	violated := len(sr.Structural) > 0
	inconclusive := len(sr.Failures) > 0
	for _, siteRep := range sr.Sites {
		for _, p := range siteRep.Paths {
			switch p.Verdict {
			case concolic.VerdictViolation:
				violated = true
			case concolic.VerdictInconclusive:
				inconclusive = true
			}
			if len(p.PostViolatedBy) > 0 {
				violated = true
			}
			for _, v := range p.DynamicVerdicts {
				if v == concolic.VerdictInconclusive {
					inconclusive = true
				}
			}
		}
	}
	if violated {
		return OutcomeViolated
	}
	if inconclusive {
		return OutcomeInconclusive
	}
	return OutcomePass
}

// Counts aggregates verdicts.
type Counts struct {
	Verified   int
	Violations int
	Unknown    int
	Uncovered  int
	// PostViolations counts dynamic hits whose postcondition Q failed.
	PostViolations int
	// Inconclusive counts static paths whose complement check degraded
	// (solver budget, cancellation) instead of deciding.
	Inconclusive int
	// Failures counts contained job failures across all semantics.
	Failures int
}

// StageTimings accumulates wall-clock per workflow stage. A nil map is a
// valid no-op sink, so stage primitives can run untimed.
type StageTimings map[string]time.Duration

// Time runs f and charges its wall-clock to the named stage.
func (t StageTimings) Time(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	t[name] += time.Since(t0)
}

// AddAll merges another timing map into this one (stage totals add up).
func (t StageTimings) AddAll(other StageTimings) {
	if t == nil {
		return
	}
	for name, d := range other {
		t[name] += d
	}
}

// AssertReport is the outcome of asserting every registered contract over
// one codebase version.
type AssertReport struct {
	Semantics []*SemanticReport
	Counts    Counts
	// StageTimings records wall-clock per workflow stage.
	StageTimings StageTimings
	// TestsRun counts dynamic test executions.
	TestsRun int
	// StaticOnly marks reports produced without any test corpus.
	StaticOnly bool
}

// Violations returns every violating path and structural finding rendered
// as strings (for gates and logs).
func (r *AssertReport) Violations() []string {
	var out []string
	for _, sr := range r.Semantics {
		for _, v := range sr.Structural {
			out = append(out, fmt.Sprintf("[%s] %s", sr.Semantic.ID, v))
		}
		for _, site := range sr.Sites {
			for _, p := range site.Paths {
				if p.Verdict == concolic.VerdictViolation {
					out = append(out, fmt.Sprintf("[%s] %s path {%s}", sr.Semantic.ID, site.Site, p.Static))
				}
			}
		}
	}
	return out
}

// Semantic returns the per-semantic report with the given ID, or nil when
// the run did not assert it.
func (r *AssertReport) Semantic(id string) *SemanticReport {
	for _, sr := range r.Semantics {
		if sr.Semantic.ID == id {
			return sr
		}
	}
	return nil
}

// AssertContext is the shared, read-only state one assertion run operates
// over: the compiled programs, the call graph, and the test index. It is
// built once by Prepare and consumed by the stage primitives below —
// sequentially by Assert, or fanned out across goroutines by the scheduler
// in internal/sched. After Prepare returns, nothing in the context mutates,
// so concurrent stage execution is safe. The snapshots and the call graph
// come from the snapshot cache; the test index and the parsed suite come
// from the engine's own cache, keyed by CorpusDigest and bounded by
// testSetCapacity — so a run over a version and a suite the engine has
// seen rebuilds none of them.
type AssertContext struct {
	Tests []ticket.TestCase
	// CorpusDigest identifies Tests: every field of every test, in order.
	// It keys the test index, and the scheduler's fingerprints include it.
	CorpusDigest string
	// Snapshot is the system version under assertion; SnapshotAll covers
	// system plus tests: the suite linked onto Snapshot's program
	// (program.Cache.Link). Both are shared and cached — repeated runs
	// over one version reuse them instead of re-parsing or re-linking.
	Snapshot    *program.Snapshot
	SnapshotAll *program.Snapshot
	// ProgSys is the system alone (the class inventory); ProgAll is system
	// plus tests (the analysis program, so statement IDs align between
	// static and dynamic stages).
	ProgSys *minij.Program
	ProgAll *minij.Program
	Graph   *callgraph.Graph
	// Selector indexes the test corpus for similarity selection. It is
	// shared with every run of this engine over the same corpus, and
	// read-only.
	Selector *testsel.Selector

	systemClasses map[string]bool
	// calls indexes the system methods' calls by callee for MatchSites,
	// built by the first match of the context.
	callsOnce sync.Once
	calls     *contract.CallIndex
}

// MethodCanon returns the canonical text of a method of the analysis
// program, memoized on the snapshot so fingerprinting the same method
// across jobs and across runs renders it once.
func (c *AssertContext) MethodCanon(m *minij.Method) string {
	if s := c.SnapshotAll.MethodCanon(m.FullName()); s != "" {
		return s
	}
	return minij.FormatMethod(m)
}

// IsEntry reports whether m is an entry function: a system method not
// called from system code (test callers do not disqualify it).
func (c *AssertContext) IsEntry(m *minij.Method) bool {
	if !c.systemClasses[m.Class.Name] {
		return false
	}
	for _, cs := range c.Graph.Callers[m] {
		if c.systemClasses[cs.Caller.Class.Name] {
			return false
		}
	}
	return true
}

// Prepare loads the target source as a shared snapshot, links the test
// suite onto it, builds the call graph, and indexes the test corpus — the
// shared setup every assertion stage depends on. Snapshots are memoized by
// content hash and links by system hash and corpus digest, so replaying a
// version that was prepared before skips the parse, resolve, link, and
// call-graph stages entirely.
func (e *Engine) Prepare(source string, tests []ticket.TestCase, tm StageTimings) (*AssertContext, error) {
	var snap *program.Snapshot
	var err error
	tm.Time("compile", func() { snap, err = e.LoadSnapshot(source) })
	if err != nil {
		return nil, fmt.Errorf("system source: %w", err)
	}
	return e.PrepareSnapshot(snap, tests, tm)
}

// LoadSnapshot loads source through the engine's snapshot cache.
func (e *Engine) LoadSnapshot(source string) (*program.Snapshot, error) {
	return e.Snapshots.Load(source)
}

// PrepareSnapshot is Prepare for an already-loaded system snapshot (the CI
// gate loads head and proposed change once and shares them across jobs).
// The analysis program links the corpus's suite, parsed once per engine,
// onto snap's program; a suite that does not link is compiled appended to
// the system source, so its errors read as they always have.
func (e *Engine) PrepareSnapshot(snap *program.Snapshot, tests []ticket.TestCase, tm StageTimings) (*AssertContext, error) {
	if e.VerifySnapshots {
		if err := snap.Verify(); err != nil {
			return nil, err
		}
	}
	ctx := &AssertContext{Snapshot: snap, Tests: tests}
	ctx.ProgSys = snap.Program()
	var suite *program.Suite
	tm.Time("test-index", func() {
		ctx.CorpusDigest = corpusDigest(tests)
		suite, ctx.Selector = e.testSet(ctx.CorpusDigest, tests)
	})
	var err error
	tm.Time("compile", func() {
		if len(tests) == 0 {
			// No test code: the analysis program is the system program.
			ctx.SnapshotAll = snap
			return
		}
		ctx.SnapshotAll, err = e.Snapshots.Link(snap, suite)
		if err != nil {
			err = fmt.Errorf("system+tests: %w", err)
		}
	})
	if err != nil {
		return nil, err
	}
	if e.VerifySnapshots && ctx.SnapshotAll != snap {
		if verr := ctx.SnapshotAll.Verify(); verr != nil {
			return nil, verr
		}
	}
	ctx.ProgAll = ctx.SnapshotAll.Program()
	ctx.systemClasses = map[string]bool{}
	for _, c := range ctx.ProgSys.Classes {
		ctx.systemClasses[c.Name] = true
	}
	tm.Time("callgraph", func() { ctx.Graph = ctx.SnapshotAll.Graph() })
	return ctx, nil
}

// corpusDigest identifies a test corpus as one unit: selection ranks
// against TF-IDF weights over every document, so any test change can
// reorder any selection.
func corpusDigest(tests []ticket.TestCase) string {
	parts := make([]string, 0, 5*len(tests))
	for _, tc := range tests {
		parts = append(parts, tc.Name, tc.Class, tc.Method, tc.Description, tc.Source)
	}
	return program.HashParts(parts...)
}

// testSet is what an engine derives from one test corpus alone: the suite,
// parsed at most once and linked onto each system snapshot, and the test
// index.
type testSet struct {
	suite *program.Suite
	sel   *testsel.Selector
}

// testSet returns the engine's suite and test index for the corpus with
// the given digest, building them on first use. Both are pure functions of
// the corpus, which the digest covers field by field, so one test set
// serves every run over that corpus. The index is built over a private
// copy of tests: a caller that later edits its slice in place cannot
// change an index cached under the old digest.
func (e *Engine) testSet(digest string, tests []ticket.TestCase) (*program.Suite, *testsel.Selector) {
	e.testSetMu.Lock()
	defer e.testSetMu.Unlock()
	if e.testSets == nil {
		e.testSets = lru.New[string, *testSet](testSetCapacity)
	}
	if set, ok := e.testSets.Get(digest); ok {
		return set.suite, set.sel
	}
	// The suite's text is what a system source is appended with for the
	// concatenated compile, so a failed link falls back to exactly it.
	var sb strings.Builder
	for _, tc := range tests {
		sb.WriteString("\n")
		sb.WriteString(tc.Source)
	}
	set := &testSet{suite: program.NewSuite(digest, sb.String()), sel: testsel.New(slices.Clone(tests))}
	e.testSets.Put(digest, set)
	return set.suite, set.sel
}

// StructuralReport runs the structural check for sem over the system
// program and, when violations surface and tests exist, confirms them under
// the rule's runtime monitor. rctx bounds the confirmation replays; a test
// the step or stack budget cut short is an error naming it, as in the
// replay stage, since the hazard may have run after the cut.
func (e *Engine) StructuralReport(rctx context.Context, ctx *AssertContext, sem *contract.Semantic, tm StageTimings) (*SemanticReport, error) {
	sr := &SemanticReport{Semantic: sem}
	tm.Time("structural", func() { sr.Structural = sem.Structural.Check(ctx.ProgSys) })
	var err error
	if len(sr.Structural) > 0 && len(ctx.Tests) > 0 {
		tm.Time("structural-replay", func() {
			sr.StructuralConfirmedBy, err = e.confirmStructural(rctx, ctx.ProgAll, sem.Structural, sr.Structural, ctx.Tests)
		})
	}
	sr.SanityOK = true
	return sr, err
}

// MatchSites finds sem's target sites in system code (calls from test code
// are not production paths), in deterministic match order. The context's
// first match indexes its system calls by callee, and every match is a
// lookup in that index.
func (e *Engine) MatchSites(ctx *AssertContext, sem *contract.Semantic, tm StageTimings) []*contract.Site {
	var sites []*contract.Site
	tm.Time("match", func() {
		// Over the analysis program: when the suite reopens a system class,
		// its methods are not the system snapshot's.
		ctx.callsOnce.Do(func() {
			ctx.calls = contract.IndexCalls(ctx.ProgAll, func(m *minij.Method) bool { return ctx.systemClasses[m.Class.Name] })
		})
		sites = ctx.calls.Sites(sem)
	})
	return sites
}

// SiteChains starts a site report by enumerating the entry→site call chains
// of the execution tree.
func (e *Engine) SiteChains(ctx *AssertContext, site *contract.Site, tm StageTimings) *SiteReport {
	siteRep := &SiteReport{Site: site}
	tm.Time("exec-tree", func() {
		tree := ctx.Graph.ExecutionTree(site.Method, callgraph.TreeOptions{IsEntry: ctx.IsEntry})
		siteRep.Chains = tree.Paths
		siteRep.TreeTruncated = tree.Truncated
	})
	return siteRep
}

// SitePaths enumerates the static paths reaching siteRep's site along its
// chains and records per-path complement-check verdicts. tops, when
// non-nil, holds the chain tops of the site's unit (UnitSiteJob). rctx
// cancellation and budget errors abort the stage; the caller (SiteJob)
// then discards the partial site.
func (e *Engine) SitePaths(rctx context.Context, ctx *AssertContext, siteRep *SiteReport, tops *concolic.ChainTops, tm StageTimings) error {
	site := siteRep.Site
	var stageErr error
	tm.Time("static-paths", func() {
		lim := e.solverLimits(rctx)
		opts := concolic.Options{NoPrune: e.NoPrune, Lim: lim}
		// The nil chain enumerates the site's method alone (StaticPaths).
		chains := siteRep.Chains
		if e.IntraOnly || len(chains) == 0 {
			chains = []callgraph.Path{nil}
		}
		// Enumerate first, then check each distinct path in chain order.
		// An instantiated query repeated across the site's paths is a
		// memory hit in the solver cache.
		paths, truncated := concolic.SiteStaticPaths(ctx.ProgAll, site, chains, opts, tops)
		seen := map[string]bool{}
		var pending []*concolic.StaticPath
		for i := range chains {
			siteRep.TreeTruncated = siteRep.TreeTruncated || truncated[i]
			for _, p := range paths[i] {
				if k := p.Key(); !seen[k] {
					seen[k] = true
					pending = append(pending, p)
				}
			}
		}
		for _, p := range pending {
			verdict, err := concolic.CheckStaticPathLim(site.Semantic, p, lim)
			if err != nil {
				stageErr = err
				return
			}
			siteRep.Paths = append(siteRep.Paths, &PathReport{Static: p, Verdict: verdict})
		}
		// Path enumeration swallows cancellation into truncation; surface
		// it so a cancelled run fails the job instead of shipping a
		// quietly shorter path set.
		stageErr = rctx.Err()
	})
	return stageErr
}

// DynamicReplay selects tests per site, replays them concolically, and
// attributes hits to static paths. It returns the number of distinct tests
// run; a non-nil error means the stage degraded (step budget, deadline,
// cancellation) and the caller must not trust the partial overlay.
func (e *Engine) DynamicReplay(rctx context.Context, ctx *AssertContext, sr *SemanticReport, tm StageTimings) (int, error) {
	if len(ctx.Tests) == 0 {
		return 0, nil
	}
	var selected []ticket.TestCase
	tm.Time("test-select", func() {
		seen := map[string]bool{}
		for _, siteRep := range sr.Sites {
			var statics []*concolic.StaticPath
			for _, p := range siteRep.Paths {
				statics = append(statics, p.Static)
			}
			var chosen []ticket.TestCase
			if e.RunAllTests {
				chosen = ctx.Selector.All()
			} else {
				chosen = ctx.Selector.SelectForSite(siteRep.Site, siteRep.Chains, statics, e.topK())
			}
			for _, tc := range chosen {
				siteRep.SelectedTests = append(siteRep.SelectedTests, tc.Name)
				if !seen[tc.Name] {
					seen[tc.Name] = true
					selected = append(selected, tc)
				}
			}
		}
	})
	var err error
	tm.Time("concolic", func() { err = e.runDynamic(rctx, ctx.ProgAll, sr, selected) })
	return len(selected), err
}

// Absorb appends a finished semantic report and folds its verdicts into the
// aggregate counts (including the per-rule sanity check).
func (r *AssertReport) Absorb(sr *SemanticReport) {
	r.Semantics = append(r.Semantics, sr)
	r.Counts.Failures += len(sr.Failures)
	if sr.Semantic.Kind == contract.StructuralKind {
		r.Counts.Violations += len(sr.Structural)
		return
	}
	for _, siteRep := range sr.Sites {
		for _, p := range siteRep.Paths {
			switch p.Verdict {
			case concolic.VerdictVerified:
				r.Counts.Verified++
				sr.SanityOK = true
			case concolic.VerdictViolation:
				r.Counts.Violations++
			case concolic.VerdictInconclusive:
				r.Counts.Inconclusive++
			default:
				r.Counts.Unknown++
			}
			if !p.Covered() && !r.StaticOnly {
				r.Counts.Uncovered++
			}
			r.Counts.PostViolations += len(p.PostViolatedBy)
		}
	}
}

// Assert checks every registered contract against a codebase, optionally
// replaying tests for dynamic confirmation. The returned report carries
// per-path verdicts, coverage, and sanity status. This is the sequential
// reference run; internal/sched produces byte-identical reports by fanning
// the same stage primitives out across a worker pool.
func (e *Engine) Assert(source string, tests []ticket.TestCase) (*AssertReport, error) {
	return e.AssertCtx(context.Background(), source, tests)
}

// AssertCtx is Assert under an external context: cancelling ctx promptly
// aborts the run, failing in-flight jobs with reason "cancelled".
func (e *Engine) AssertCtx(ctx context.Context, source string, tests []ticket.TestCase) (*AssertReport, error) {
	tm := StageTimings{}
	actx, err := e.Prepare(source, tests, tm)
	if err != nil {
		return nil, err
	}
	rctx, cancel := e.Budget.RunContext(ctx)
	defer cancel()
	return e.assertOver(rctx, actx, tm), nil
}

// AssertSnapshot is Assert over an already-loaded program snapshot.
func (e *Engine) AssertSnapshot(snap *program.Snapshot, tests []ticket.TestCase) (*AssertReport, error) {
	tm := StageTimings{}
	actx, err := e.PrepareSnapshot(snap, tests, tm)
	if err != nil {
		return nil, err
	}
	rctx, cancel := e.Budget.RunContext(context.Background())
	defer cancel()
	return e.assertOver(rctx, actx, tm), nil
}

// assertOver runs the sequential stage loop over a prepared context. Every
// stage executes as a contained job — the same decomposition, names, units
// and failure handling as the scheduler's worker pool — so a fault degrades
// both execution strategies to byte-identical reports.
func (e *Engine) assertOver(rctx context.Context, ctx *AssertContext, tm StageTimings) *AssertReport {
	report := &AssertReport{StageTimings: tm, StaticOnly: len(ctx.Tests) == 0}
	for _, sem := range e.Registry.All() {
		var sr *SemanticReport
		if sem.Kind == contract.StructuralKind {
			sr = e.StructuralJob(rctx, ctx, JobNameStructural(sem.ID), sem, tm)
		} else {
			sr = &SemanticReport{Semantic: sem}
			for _, site := range e.MatchSites(ctx, sem, tm) {
				sr.Sites = append(sr.Sites, e.SiteChains(ctx, site, tm))
			}
			i := 0
			for _, unit := range SiteUnits(sr.Sites, func(r *SiteReport) *contract.Site { return r.Site }) {
				tops := UnitTops(len(unit))
				for _, siteRep := range unit {
					if fail := e.UnitSiteJob(rctx, ctx, JobNameSite(sem.ID, i), siteRep, tops, tm); fail != nil {
						sr.Failures = append(sr.Failures, fail)
					}
					i++
				}
			}
			if len(ctx.Tests) > 0 {
				n, fail := e.DynamicJob(rctx, ctx, JobNameDynamic(sem.ID), sr, tm)
				report.TestsRun += n
				if fail != nil {
					sr.Failures = append(sr.Failures, fail)
				}
			}
		}
		report.Absorb(sr)
	}
	return report
}

// confirmStructural replays the test suite under the rule's own runtime
// monitor: a test confirms a finding when the rule's hazard ran while the
// finding's method held a lock.
func (e *Engine) confirmStructural(rctx context.Context, prog *minij.Program, rule *contract.LockRule, violations []*contract.StructuralViolation, tests []ticket.TestCase) (map[int][]string, error) {
	confirmed := map[int][]string{}
	var degraded []string
	for _, tc := range tests {
		if rctx.Err() != nil {
			// StructuralJob turns the truncation into a job failure.
			break
		}
		in := interp.NewWithOptions(prog, interp.Options{Ctx: rctx, StepBudget: e.Budget.StepBudget})
		mon := rule.Monitor(in)
		// Expected exceptions do not invalidate observed events.
		if _, err := in.CallStatic(tc.Class, tc.Method); errors.Is(err, interp.ErrStepBudget) || errors.Is(err, interp.ErrStackDepth) {
			degraded = append(degraded, tc.Name)
		}
		for i, v := range violations {
			if mon.Holders[v.Method.FullName()] {
				confirmed[i] = append(confirmed[i], tc.Name)
			}
		}
	}
	if len(degraded) > 0 {
		return confirmed, fmt.Errorf("replay degraded for %s: %w", strings.Join(degraded, ", "), interp.ErrStepBudget)
	}
	return confirmed, nil
}

func (e *Engine) topK() int {
	if e.TestTopK <= 0 {
		return 3
	}
	return e.TestTopK
}

// runDynamic replays the selected tests, then attributes each site hit to
// the static path it instantiates (matching bindings, and a dynamic
// condition that entails the static one). Tests that exhaust the step or
// stack budget degrade the stage deterministically: the aggregated error
// names them in selection order.
func (e *Engine) runDynamic(rctx context.Context, prog *minij.Program, sr *SemanticReport, selected []ticket.TestCase) error {
	var sites []*contract.Site
	siteReps := map[*contract.Site]*SiteReport{}
	for _, siteRep := range sr.Sites {
		sites = append(sites, siteRep.Site)
		siteReps[siteRep.Site] = siteRep
	}
	if len(sites) == 0 {
		return nil
	}
	runner := concolic.NewRunner(prog, sites, interp.Options{Ctx: rctx, StepBudget: e.Budget.StepBudget})
	runner.SetNoPrune(e.NoPrune)
	var degraded []string
	for _, tc := range selected {
		if err := runner.RunStatic(tc.Name, tc.Class, tc.Method); err != nil {
			var ue *interp.UncaughtError
			switch {
			case errors.As(err, &ue):
				// Tests may end in expected exceptions; hits before unwind
				// count.
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				return err
			case errors.Is(err, interp.ErrStepBudget), errors.Is(err, interp.ErrStackDepth):
				degraded = append(degraded, tc.Name)
			default:
				return fmt.Errorf("replay %s: %w", tc.Name, err)
			}
		}
	}
	lim := e.solverLimits(rctx)
	for _, hit := range runner.Hits {
		siteRep := siteReps[hit.Site]
		if siteRep == nil {
			continue
		}
		best := matchHitToPath(hit, siteRep.Paths, lim)
		if best == nil {
			continue
		}
		if !containsString(best.CoveredBy, hit.TestName) {
			best.CoveredBy = append(best.CoveredBy, hit.TestName)
		}
		if best.DynamicVerdicts == nil {
			best.DynamicVerdicts = map[string]concolic.Verdict{}
		}
		best.DynamicVerdicts[hit.TestName] = hit.VerdictLim(lim)
		if hit.PostHolds == concolic.TriFalse && !containsString(best.PostViolatedBy, hit.TestName) {
			best.PostViolatedBy = append(best.PostViolatedBy, hit.TestName)
		}
	}
	if len(degraded) > 0 {
		return fmt.Errorf("replay degraded for %s: %w", strings.Join(degraded, ", "), interp.ErrStepBudget)
	}
	return nil
}

// matchHitToPath finds the most specific static path whose condition the
// hit's condition entails, with matching slot bindings. A solver failure
// on a candidate skips it — conservatively leaving the hit unattributed.
func matchHitToPath(hit *concolic.SiteHit, paths []*PathReport, lim smt.Limits) *PathReport {
	var best *PathReport
	bestAtoms := -1
	for _, p := range paths {
		if !bindingsEqual(hit.Bindings, p.Static.Bindings) {
			continue
		}
		ok, err := smt.ImpliesLim(hit.Cond, p.Static.Cond, lim)
		if err != nil || !ok {
			continue
		}
		n := len(smt.Atoms(p.Static.Cond))
		if n > bestAtoms {
			best, bestAtoms = p, n
		}
	}
	return best
}

func bindingsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// SortedStageNames returns the timing keys in deterministic order.
func (r *AssertReport) SortedStageNames() []string {
	var names []string
	for n := range r.StageTimings {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
