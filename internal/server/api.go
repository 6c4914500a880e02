package server

import (
	"math"
	"time"

	"lisa/internal/core"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/smt"
	"lisa/internal/store"
)

// GateRequest asks the daemon to run the CI gate for a proposed change
// against the registered rules of a corpus case.
type GateRequest struct {
	// Case is the corpus case id providing the registered rules.
	Case string `json:"case"`
	// Change is the full proposed MiniJ system source.
	Change string `json:"change"`
	// Summary describes the change for the gate log.
	Summary string `json:"summary,omitempty"`
	// Workers is the scheduler pool width (0 = server default).
	Workers int `json:"workers,omitempty"`
	// Incremental gates only what the change impacts relative to the
	// current head (the server primes its fingerprint cache on head once
	// per case).
	Incremental bool `json:"incremental,omitempty"`
	// FailOpen downgrades INCONCLUSIVE outcomes to warnings.
	FailOpen bool `json:"fail_open,omitempty"`
	// Budget bounds this request (nil = server default budget).
	Budget *BudgetSpec `json:"budget,omitempty"`
}

// BudgetSpec is the wire form of core.Budget. Timeouts are fractional
// milliseconds, so a sub-millisecond deadline (lisa gate -run-timeout
// 1ns) survives the trip instead of truncating to none.
type BudgetSpec struct {
	RunTimeoutMS float64 `json:"run_timeout_ms,omitempty"`
	JobTimeoutMS float64 `json:"job_timeout_ms,omitempty"`
	SolverNodes  int     `json:"solver_nodes,omitempty"`
	StepBudget   int     `json:"step_budget,omitempty"`
}

// Budget converts the wire spec to the engine's budget type.
func (b *BudgetSpec) Budget() core.Budget {
	if b == nil {
		return core.Budget{}
	}
	return core.Budget{
		RunTimeout:  msDuration(b.RunTimeoutMS),
		JobTimeout:  msDuration(b.JobTimeoutMS),
		SolverNodes: b.SolverNodes,
		StepBudget:  b.StepBudget,
	}
}

// msDuration converts fractional milliseconds to a duration, rounded to
// the nearest nanosecond.
func msDuration(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// Finding is one gate finding (mirror of ci.Finding).
type Finding struct {
	Severity string `json:"severity"`
	Text     string `json:"text"`
}

// GateResponse is the gate decision. Report is the canonical
// core.AssertReport.Render of the run — the byte-identity contract: it is
// byte-identical to what a local sequential run over the same inputs
// renders, under arbitrary request interleaving. Summary carries the gate
// log (which includes the asserted/skipped and cache-hit split, so it
// legitimately differs between a warm server and a cold process).
type GateResponse struct {
	Case       string     `json:"case"`
	Pass       bool       `json:"pass"`
	Verdict    string     `json:"verdict"` // "PASS" or "BLOCKED"
	Findings   []Finding  `json:"findings,omitempty"`
	Report     string     `json:"report,omitempty"`
	Summary    string     `json:"summary"`
	Asserted   int        `json:"asserted"`
	Skipped    int        `json:"skipped"`
	DurationMS float64    `json:"duration_ms"`
	Cache      CacheDelta `json:"cache"`
}

// AssertRequest asks the daemon to assert a case's registered rules over a
// version of the case's system (or an arbitrary source).
type AssertRequest struct {
	// Case is the corpus case id providing the registered rules.
	Case string `json:"case"`
	// Version picks the target: "head" (default), "latest", or
	// "<ticket-id>:buggy|fixed". Ignored when Source is set.
	Version string `json:"version,omitempty"`
	// Source, when non-empty, is an arbitrary MiniJ source to assert over.
	Source string `json:"source,omitempty"`
	// Tests also replays the case's similarity-selected test suite.
	Tests bool `json:"tests,omitempty"`
	// Workers is the scheduler pool width (0 = server default).
	Workers int `json:"workers,omitempty"`
	// Budget bounds this request (nil = server default budget).
	Budget *BudgetSpec `json:"budget,omitempty"`
}

// AssertCounts summarizes the report verdicts.
type AssertCounts struct {
	Verified   int `json:"verified"`
	Violations int `json:"violations"`
	Unknown    int `json:"unknown"`
	Uncovered  int `json:"uncovered"`
}

// AssertResponse carries the assertion outcome. Report is the canonical
// render — byte-identical to the sequential local run (same contract as
// GateResponse.Report). Summary is what lisa assert prints: the case's
// registration lines, the scheduler's job and store lines, the verdict
// counts and one line per path.
type AssertResponse struct {
	Case       string       `json:"case"`
	Verdict    string       `json:"verdict"` // "PASS" or "VIOLATED"
	Counts     AssertCounts `json:"counts"`
	TestsRun   int          `json:"tests_run"`
	Report     string       `json:"report"`
	Summary    string       `json:"summary"`
	DurationMS float64      `json:"duration_ms"`
	Cache      CacheDelta   `json:"cache"`
}

// CacheDelta records what one request cost the hot caches: the scheduler
// job split plus the solver and snapshot counter growth observed across
// the run. Scheduler and solver numbers are exact (per-run; the solver
// delta is read from the case engine's private cache, which nothing else
// in the process touches). The snapshot delta is taken over the server's
// private cache shared by all its cases — exact under serial load and
// approximate when requests on other cases run concurrently; see the
// package comment on delta accounting.
type CacheDelta struct {
	SchedJobs        int    `json:"sched_jobs"`
	SchedExecuted    int    `json:"sched_executed"`
	SchedCacheHits   int    `json:"sched_cache_hits"`
	SolverQueries    uint64 `json:"solver_queries"`
	SolverCacheHits  uint64 `json:"solver_cache_hits"`
	SnapshotHits     uint64 `json:"snapshot_hits"`
	SnapshotMisses   uint64 `json:"snapshot_misses"`
	SnapshotCompiles uint64 `json:"snapshot_compiles"`
}

// WatchRequest registers a directory root with the file watcher.
type WatchRequest struct {
	Root string `json:"root"`
}

// WatcherStats describes what the polling file watcher has done so far.
type WatcherStats struct {
	Roots        int    `json:"roots"`
	Polls        uint64 `json:"polls"`
	FilesScanned uint64 `json:"files_scanned"`
	Changes      uint64 `json:"changes"`
	Prewarmed    uint64 `json:"prewarmed"`
	// PrewarmsShed counts change events whose prewarm the overload breaker
	// dropped (server saturated); the change is re-detected and re-warmed
	// by a later poll once load falls.
	PrewarmsShed uint64 `json:"prewarms_shed,omitempty"`
	DirtySets    uint64 `json:"dirty_sets"`
	LastChange   string `json:"last_change,omitempty"`
}

// CaseStats is the per-case runtime state exposed by /stats.
type CaseStats struct {
	Case       string           `json:"case"`
	SchedCache sched.CacheStats `json:"sched_cache"`
	// Solver is the case engine's private solver cache — exact per case,
	// regardless of what other cases or processes do.
	Solver smt.QueryCacheStats `json:"solver"`
}

// RequestCounts is the per-endpoint request ledger.
type RequestCounts struct {
	Gate    uint64 `json:"gate"`
	Assert  uint64 `json:"assert"`
	Refused uint64 `json:"refused"`
}

// StatsResponse aggregates the counters that previously only lisabench
// could see, scoped to this server instance. Snapshot is the server's
// private snapshot cache (exact per instance). Solver is the field-wise sum
// of the per-case engines' private solver caches — exact always, no matter
// what the rest of the process is doing (each engine owns its instance).
// Store and Tiers appear when the daemon runs over an on-disk store: Store
// is the store's own ledger, Tiers the unified two-tier counters of every
// cache backed by it (snapshot, registry, fingerprint per case, solver per
// case).
type StatsResponse struct {
	UptimeMS   float64             `json:"uptime_ms"`
	Draining   bool                `json:"draining"`
	Inflight   int                 `json:"inflight"`
	Requests   RequestCounts       `json:"requests"`
	Admission  AdmissionStats      `json:"admission"`
	Cases      []CaseStats         `json:"cases"`
	Snapshot   program.CacheStats  `json:"snapshot_cache"`
	Solver     smt.QueryCacheStats `json:"solver"`
	Store      *store.Stats        `json:"store,omitempty"`
	Tiers      []store.TierStats   `json:"tiers,omitempty"`
	Watcher    WatcherStats        `json:"watcher"`
	HistoryLen int                 `json:"history_len"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}
