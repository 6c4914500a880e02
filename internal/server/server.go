// Package server exposes the assertion pipeline as a long-lived HTTP/JSON
// daemon: `lisa serve`. A cold `lisa gate` process pays the whole front
// end — ticket inference, parse/resolve/call-graph, site fingerprints,
// solver queries — on every invocation and throws the warm caches away at
// exit. The daemon instead owns process-lifetime instances of the hot
// state (a private program snapshot cache, and per corpus case one
// scheduler fingerprint cache and one solver query cache) and serves
// concurrent /gate and /assert requests against them, so a fleet of CI
// runners pays the front end once and every subsequent request runs at
// warm-cache speed.
//
// Concurrency contract: requests on different cases run concurrently;
// requests on one case serialize on that case's runtime (its engine,
// budget, and fingerprint cache are shared state, and the warm caches make
// repeats cheap). Under that discipline every report returned over the
// wire is byte-identical — per core.AssertReport.Render — to what a local
// sequential run over the same inputs produces, under arbitrary request
// interleaving, and the package is race-clean.
//
// Delta accounting: the /stats endpoint and per-request cache deltas are
// scoped to this server instance. The snapshot cache is a private
// program.Cache, so its numbers are exact per server. Each case engine
// carries a private solver query cache (core.Engine.Solver), so solver
// deltas are exact per request and per case no matter what the rest of the
// process is doing; /stats reports their field-wise sum. Snapshot-cache
// per-request deltas remain exact under serial load and approximate across
// concurrently running cases (the cache is shared between cases).
//
// One request path: Server.Gate and Server.Assert run a gate or assert
// request. The HTTP handlers only decode, call and encode, and the lisa
// CLI calls the same methods on an in-process Server when it runs
// without -remote or fails over, so every path prints the same bytes.
//
// Two-tier mode: when Config.Store is set, the snapshot cache, every
// case's fingerprint cache, and every case engine's solver cache are
// backed by the shared on-disk store, and each case's registered rules are
// one store record, so a restarted daemon or a cold CLI process starts
// warm and infers each case's rules once per store. /stats then also
// reports the store ledger and per-cache tier counters.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lisa/internal/ci"
	"lisa/internal/concolic"
	"lisa/internal/core"
	"lisa/internal/faultinject"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/smt"
	"lisa/internal/store"
	"lisa/internal/ticket"
)

const (
	// DefaultHistorySize bounds the request history ring.
	DefaultHistorySize = 256
	// DefaultWatchInterval is the file watcher's polling period.
	DefaultWatchInterval = 2 * time.Second
	// DefaultDrainTimeout bounds how long Drain waits for in-flight
	// requests before giving up.
	DefaultDrainTimeout = 10 * time.Second
)

// Config configures a Server.
type Config struct {
	// Corpus provides the cases whose rules the daemon serves. Nil means
	// the full study corpus (corpus.Load from the caller; the server does
	// not load it implicitly to keep the dependency one-way).
	Corpus *ticket.Corpus
	// Workers is the default scheduler pool width for requests that do not
	// specify one (0 = GOMAXPROCS).
	Workers int
	// HistorySize bounds the history ring (0 = DefaultHistorySize).
	HistorySize int
	// WatchInterval is the watcher polling period (0 = default).
	WatchInterval time.Duration
	// FailOpen makes every gate downgrade INCONCLUSIVE to warnings unless
	// the request says otherwise.
	FailOpen bool
	// Budget is the default per-request budget (zero = no deadlines,
	// package defaults).
	Budget core.Budget
	// Store, when set, is the shared on-disk tier behind every cache the
	// daemon owns (snapshots, per-case fingerprints, per-case solver
	// results, per-case registries). The caller opens and closes it; the
	// server only attaches.
	Store *store.Store
	// MaxConcurrent bounds how many /gate, /assert, and /watch requests
	// run at once (0 = unlimited: admission control off, the historical
	// behavior). Past the bound, interactive requests queue up to MaxQueue
	// and /watch registrations are shed immediately.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an admission slot
	// (0 = DefaultMaxQueue when admission is enabled).
	MaxQueue int
	// Quotas maps an X-Lisa-Token header value to its admission class; the
	// "" key is the class for requests with no (or an unknown) token.
	// Quotas apply even when MaxConcurrent is 0.
	Quotas map[string]QuotaClass
}

// caseRuntime is the long-lived per-case state: the engine with the case's
// rules registered, and the scheduler whose fingerprint cache accumulates
// across requests. mu serializes assertion runs on the case. A runtime is
// in Server.cases before once has built it; ready is set after the build,
// so /stats reads engine and sched only once they exist, without waiting
// on the build or on mu.
type caseRuntime struct {
	cs    *ticket.Case
	once  sync.Once
	err   error
	ready atomic.Bool

	// registered holds the lines processing the case's tickets printed:
	// one per registered rule and one per re-derived known rule.
	registered string

	mu     sync.Mutex
	engine *core.Engine
	sched  *sched.Scheduler
	primed bool // head fingerprints warmed (incremental gates)
}

// Server is the daemon. Create with New, mount Handler on an http.Server
// (or call ServeHTTP directly), and Drain before exit.
type Server struct {
	cfg       Config
	corpus    *ticket.Corpus
	snapshots *program.Cache
	// registryTier reads and writes each case's registry record. It has no
	// memory tier: a built case runtime is one.
	registryTier *store.Tier
	hist         *History
	watch        *watcher
	adm          *admission

	started time.Time

	casesMu sync.Mutex
	cases   map[string]*caseRuntime

	// stateMu guards draining and the inflight count; idle is signalled
	// when the last in-flight request finishes during a drain.
	stateMu  sync.Mutex
	draining bool
	inflight int
	idle     chan struct{}

	reqGate    uint64
	reqAssert  uint64
	reqRefused uint64

	// testRequestDelay stretches every admitted request (tests only: it
	// makes "a request is in flight while Drain runs" deterministic).
	testRequestDelay time.Duration
}

// New returns a daemon over cfg.Corpus. Solver accounting is exact per
// case: every case engine gets a private query cache at first use.
func New(cfg Config) *Server {
	s := &Server{
		cfg:       cfg,
		corpus:    cfg.Corpus,
		snapshots: program.NewCache(program.DefaultCapacity),
		hist:      NewHistory(cfg.HistorySize),
		started:   time.Now(),
		cases:     map[string]*caseRuntime{},
		idle:      make(chan struct{}, 1),
		adm:       newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.Quotas),
	}
	s.snapshots.SetStore(cfg.Store)
	s.registryTier = store.NewTier("registry", nil, registryNamespace)
	s.registryTier.SetStore(cfg.Store)
	s.watch = newWatcher(s, cfg.WatchInterval)
	return s
}

// History exposes the audit ring (for flushing on shutdown).
func (s *Server) History() *History { return s.hist }

// RegisterRoot adds a directory to the file watcher and starts the polling
// loop on first use.
func (s *Server) RegisterRoot(dir string) error { return s.watch.addRoot(dir) }

// PollNow runs one synchronous watcher poll over the registered roots and
// returns the watcher counters afterwards.
func (s *Server) PollNow() WatcherStats { return s.watch.poll() }

// Inflight returns the number of requests currently being served.
func (s *Server) Inflight() int {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.inflight
}

// runtime returns the long-lived runtime for a case, building it on first
// use: a fresh engine wired to the server's private snapshot cache with
// the case's rules registered (restored from the store, or inferred from
// every ticket), plus a scheduler whose fingerprint cache persists for the
// server's lifetime.
func (s *Server) runtime(id string) (*caseRuntime, error) {
	if s.corpus == nil {
		return nil, fmt.Errorf("server has no corpus configured")
	}
	cs := s.corpus.Get(id)
	if cs == nil {
		return nil, fmt.Errorf("unknown case %q", id)
	}
	s.casesMu.Lock()
	rt, ok := s.cases[id]
	if !ok {
		rt = &caseRuntime{cs: cs}
		s.cases[id] = rt
	}
	s.casesMu.Unlock()
	rt.once.Do(func() {
		e := core.New()
		e.Snapshots = s.snapshots
		e.Solver = smt.NewQueryCache(0)
		e.Solver.SetStore(s.cfg.Store)
		if rt.registered, rt.err = s.registry(e, cs); rt.err != nil {
			return
		}
		rt.engine = e
		rt.sched = sched.New()
		rt.sched.Cache().SetStore(s.cfg.Store)
		rt.ready.Store(true)
	})
	return rt, rt.err
}

// registry registers cs's rules on e and returns the registration lines.
// With a store attached it first restores them from the case's registry
// record; on a miss it processes every ticket, as a store-less server
// always does, and writes the record. A record is written only for a
// clean result: every ticket processed without error and no fault plan
// armed, store-scoped or not, since an injected solver or replay fault in
// the cross-check changes which rules register.
func (s *Server) registry(e *core.Engine, cs *ticket.Case) (string, error) {
	if !s.registryTier.Attached() {
		return inferRegistry(e, cs)
	}
	key := registryKey(registryVersion, cs)
	var registered string
	if s.registryTier.Get(registryNamespace, key, func(raw []byte) bool {
		reg, lines, ok := restoreRegistry(raw)
		if ok {
			e.Registry, registered = reg, lines
		}
		return ok
	}) {
		return registered, nil
	}
	armed := faultinject.Armed()
	registered, err := inferRegistry(e, cs)
	if err != nil {
		return "", err
	}
	if !armed && !faultinject.Armed() {
		s.registryTier.Put(registryNamespace, key, encodeRegistry(registered, e.Registry))
	}
	return registered, nil
}

// begin admits one request unless the server is draining. The matching
// end() must be called when the request finishes.
func (s *Server) begin() bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.draining {
		s.reqRefused++
		return false
	}
	s.inflight++
	return true
}

func (s *Server) end() {
	s.stateMu.Lock()
	s.inflight--
	signal := s.draining && s.inflight == 0
	s.stateMu.Unlock()
	if signal {
		select {
		case s.idle <- struct{}{}:
		default:
		}
	}
}

// Drain puts the server into shutdown: new requests are refused with 503,
// the watcher is stopped, and Drain blocks until every in-flight request
// has finished or ctx expires (in which case it reports how many were
// still running). Safe to call once; the server stays refusing afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.stateMu.Lock()
	s.draining = true
	pending := s.inflight
	s.stateMu.Unlock()
	// Evict queued-but-not-admitted requests first (they 503 and release
	// their inflight slot), then let in-flight work finish.
	s.adm.beginDrain()
	s.watch.halt()
	for pending > 0 {
		select {
		case <-s.idle:
		case <-ctx.Done():
			s.stateMu.Lock()
			pending = s.inflight
			s.stateMu.Unlock()
			return fmt.Errorf("drain: %d request(s) still in flight: %w", pending, ctx.Err())
		}
		s.stateMu.Lock()
		pending = s.inflight
		s.stateMu.Unlock()
	}
	return nil
}

// admitClass says how an endpoint meets admission control: observability
// endpoints bypass it entirely, interactive work may queue for a slot, and
// watch registrations are shed at saturation (warmth before traffic).
type admitClass int

const (
	admitNone admitClass = iota
	admitQueued
	admitShed
)

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/gate", s.guard("POST", admitQueued, serveJSON(s.Gate)))
	mux.HandleFunc("/assert", s.guard("POST", admitQueued, serveJSON(s.Assert)))
	mux.HandleFunc("/history", s.guard("GET", admitNone, s.handleHistory))
	mux.HandleFunc("/stats", s.guard("GET", admitNone, s.handleStats))
	mux.HandleFunc("/watch", s.guard("POST", admitShed, s.handleWatch))
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// ServeHTTP serves the daemon routes (Server is itself a handler).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.Handler().ServeHTTP(w, r)
}

// guard wraps a handler with method checking, the drain gate, and — for
// classed endpoints — admission control, and tracks the in-flight count.
func (s *Server) guard(method string, class admitClass, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed (want %s)", r.Method, method))
			return
		}
		if !s.begin() {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining; no new requests"))
			return
		}
		defer s.end()
		if class != admitNone {
			release, dec := s.adm.admit(r.Header.Get(clientTokenHeader), class == admitQueued)
			if release == nil {
				s.noteOverload(r, dec)
				if dec.retryAfter > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(dec.retryAfter))
				}
				writeError(w, dec.status, dec.err)
				return
			}
			defer release()
		}
		if s.testRequestDelay > 0 {
			time.Sleep(s.testRequestDelay)
		}
		h(w, r)
	}
}

// clientTokenHeader carries the client identity admission quotas key on.
const clientTokenHeader = "X-Lisa-Token"

// noteOverload records a shed/rejected request in the audit ring, so an
// operator reading /history sees overload alongside the work it displaced.
func (s *Server) noteOverload(r *http.Request, dec admitDecision) {
	verdict := "SHED"
	if dec.status == http.StatusTooManyRequests {
		verdict = "QUOTA"
	}
	s.hist.Add(HistoryEntry{
		Time:    time.Now(),
		Kind:    "overload",
		Target:  r.URL.Path,
		Verdict: verdict,
		Detail:  dec.err.Error(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.stateMu.Lock()
	draining := s.draining
	s.stateMu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Gate runs the CI gate for req on its case's runtime. It is what POST
// /gate serves and what lisa gate runs in process, so the daemon, the
// CLI and its failover print one gate log. An error carries the HTTP
// status the daemon answers it with.
func (s *Server) Gate(req GateRequest) (*GateResponse, error) {
	if req.Case == "" || req.Change == "" {
		return nil, &statusError{http.StatusBadRequest, fmt.Errorf("need case and change")}
	}
	rt, err := s.runtime(req.Case)
	if err != nil {
		return nil, &statusError{http.StatusNotFound, err}
	}
	summary := req.Summary
	if summary == "" {
		summary = "proposed change"
	}
	var res *ci.Result
	entry, err := s.serve(rt, "gate", req.Change, req.Workers, req.Budget, func(workers int) (*sched.Stats, string, string, error) {
		if req.Incremental && !rt.primed {
			// Warm the fingerprint cache on the current head once per case, so
			// incremental gates re-execute only the jobs the change impacts.
			if _, _, err := rt.sched.Assert(rt.engine, rt.cs.Head(), rt.cs.Tests, sched.Options{Workers: workers}); err != nil {
				return nil, "", "", fmt.Errorf("priming cache on head: %w", err)
			}
			rt.primed = true
		}
		var err error
		res, err = ci.GateWith(rt.engine, ci.Change{
			Summary:   summary,
			OldSource: rt.cs.Head(),
			NewSource: req.Change,
		}, rt.cs.Tests, ci.GateOptions{
			Scheduler:   rt.sched,
			Workers:     workers,
			Incremental: req.Incremental,
			FailOpen:    req.FailOpen || s.cfg.FailOpen,
		})
		if err != nil {
			return nil, "", "", err
		}
		return res.Sched, gateVerdict(res.Pass), gateDetail(res), nil
	})
	if err != nil {
		return nil, &statusError{http.StatusInternalServerError, err}
	}
	resp := &GateResponse{
		Case:       req.Case,
		Pass:       res.Pass,
		Verdict:    entry.Verdict,
		Summary:    res.Summary(),
		Asserted:   res.Asserted,
		Skipped:    res.Skipped,
		DurationMS: entry.DurationMS,
		Cache:      entry.Cache,
	}
	for _, f := range res.Findings {
		resp.Findings = append(resp.Findings, Finding{Severity: f.Severity, Text: f.Text})
	}
	if res.Report != nil {
		resp.Report = res.Report.Render()
	}
	return resp, nil
}

// Assert asserts the case's rules over req's target on its case's
// runtime. It is what POST /assert serves and what lisa assert runs in
// process; Summary is the CLI's output. An error carries the HTTP status
// the daemon answers it with.
func (s *Server) Assert(req AssertRequest) (*AssertResponse, error) {
	if req.Case == "" {
		return nil, &statusError{http.StatusBadRequest, fmt.Errorf("need case")}
	}
	rt, err := s.runtime(req.Case)
	if err != nil {
		return nil, &statusError{http.StatusNotFound, err}
	}
	// An explicit source wins over the version spec, as in the lisa CLI.
	target := req.Source
	if target == "" {
		if target, err = rt.cs.Version(req.Version); err != nil {
			return nil, &statusError{http.StatusBadRequest, err}
		}
	}
	var tests []ticket.TestCase
	if req.Tests {
		tests = rt.cs.Tests
	}
	var rep *core.AssertReport
	var stats *sched.Stats
	entry, err := s.serve(rt, "assert", target, req.Workers, req.Budget, func(workers int) (*sched.Stats, string, string, error) {
		var err error
		rep, stats, err = rt.sched.Assert(rt.engine, target, tests, sched.Options{Workers: workers})
		if err != nil {
			return nil, "", "", err
		}
		c := rep.Counts
		return stats, assertVerdict(c.Violations),
			fmt.Sprintf("verified=%d violations=%d unknown=%d uncovered=%d", c.Verified, c.Violations, c.Unknown, c.Uncovered), nil
	})
	if err != nil {
		return nil, &statusError{http.StatusUnprocessableEntity, err}
	}
	return &AssertResponse{
		Case:    req.Case,
		Verdict: entry.Verdict,
		Counts: AssertCounts{
			Verified:   rep.Counts.Verified,
			Violations: rep.Counts.Violations,
			Unknown:    rep.Counts.Unknown,
			Uncovered:  rep.Counts.Uncovered,
		},
		TestsRun:   rep.TestsRun,
		Report:     rep.Render(),
		Summary:    rt.registered + assertSummary(rep, stats),
		DurationMS: entry.DurationMS,
		Cache:      entry.Cache,
	}, nil
}

// serve is the step every gate and assert request shares. It resolves
// the pool width and the budget, serializes on the case, and runs fn with
// the case engine under the request's budget, restoring the engine's own
// afterwards. fn returns the run's scheduler stats and its history
// verdict and detail. serve records the request's cache delta and history
// entry, and returns the entry; target is the source the history names.
func (s *Server) serve(rt *caseRuntime, kind, target string, workers int, budget *BudgetSpec, fn func(workers int) (stats *sched.Stats, verdict, detail string, err error)) (HistoryEntry, error) {
	s.stateMu.Lock()
	if kind == "gate" {
		s.reqGate++
	} else {
		s.reqAssert++
	}
	s.stateMu.Unlock()
	if workers == 0 {
		workers = s.cfg.Workers
	}
	if workers <= 0 {
		// Explicitly resolve the default here so responses report the
		// actual pool width instead of 0.
		workers = runtime.GOMAXPROCS(0)
	}
	b := s.cfg.Budget
	if budget != nil {
		b = budget.Budget()
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	start := time.Now()
	solverBefore := rt.engine.Solver.Stats()
	snapBefore := s.snapshots.Stats()
	prev := rt.engine.Budget
	rt.engine.Budget = b
	stats, verdict, detail, err := fn(workers)
	rt.engine.Budget = prev
	if err != nil {
		return HistoryEntry{}, err
	}
	entry := HistoryEntry{
		Time:       start,
		Kind:       kind,
		Case:       rt.cs.ID,
		Target:     shortHash(target),
		Verdict:    verdict,
		Detail:     detail,
		Workers:    workers,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		Cache:      s.cacheDelta(rt, solverBefore, snapBefore, stats),
	}
	s.hist.Add(entry)
	return entry, nil
}

// assertSummary renders an assert run the way lisa assert prints it: the
// scheduler's job and store lines, the verdict counts, one line per
// structural violation and per path, and a WARN per failed sanity check.
func assertSummary(rep *core.AssertReport, stats *sched.Stats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "\nscheduled %d jobs on %d workers (%d site, %d dynamic, %d structural)\n",
		stats.Jobs, stats.Workers, stats.SiteJobs, stats.DynamicJobs, stats.StructuralJobs)
	if stats.DiskHits > 0 {
		fmt.Fprintf(&sb, "store: %d job(s) served from the disk tier\n", stats.DiskHits)
	}
	if stats.SnapshotRestores > 0 {
		fmt.Fprintf(&sb, "snapshots: %d restored from the store (%d decoded, %d deep-verified)\n",
			stats.SnapshotRestores, stats.SnapshotRestoresDecoded, stats.SnapshotRestoresDeepVerified)
	}
	fmt.Fprintf(&sb, "\nverdicts: %d verified, %d violations, %d unknown, %d uncovered\n\n",
		rep.Counts.Verified, rep.Counts.Violations, rep.Counts.Unknown, rep.Counts.Uncovered)
	for _, sr := range rep.Semantics {
		for _, v := range sr.Structural {
			fmt.Fprintf(&sb, "VIOLATION [%s] %s\n", sr.Semantic.ID, v)
		}
		for _, site := range sr.Sites {
			for _, p := range site.Paths {
				mark := "  "
				if p.Verdict == concolic.VerdictViolation {
					mark = "!!"
				}
				fmt.Fprintf(&sb, "%s %-9s %s  cond={%s}", mark, p.Verdict, site.Site, p.Static.Cond)
				if len(p.CoveredBy) > 0 {
					fmt.Fprintf(&sb, "  covered by %s", strings.Join(p.CoveredBy, ","))
				}
				sb.WriteByte('\n')
			}
		}
		if !sr.SanityOK {
			fmt.Fprintf(&sb, "WARN [%s] sanity check failed: no verified path anywhere\n", sr.Semantic.ID)
		}
	}
	return sb.String()
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", q))
			return
		}
		n = v
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":   s.hist.Seq(),
		"entries": s.hist.Last(n),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.casesMu.Lock()
	ids := make([]string, 0, len(s.cases))
	for id := range s.cases {
		ids = append(ids, id)
	}
	s.casesMu.Unlock()
	sort.Strings(ids)
	var cases []CaseStats
	var solver smt.QueryCacheStats
	var tiers []store.TierStats
	if s.cfg.Store != nil {
		tiers = append(tiers, s.snapshots.TierStats(), s.registryTier.TierStats())
	}
	for _, id := range ids {
		s.casesMu.Lock()
		rt := s.cases[id]
		s.casesMu.Unlock()
		if !rt.ready.Load() {
			continue
		}
		qs := rt.engine.Solver.Stats()
		solver = solver.Add(qs)
		cases = append(cases, CaseStats{Case: id, SchedCache: rt.sched.Cache().Stats(), Solver: qs})
		if s.cfg.Store != nil {
			tiers = append(tiers,
				withCase(rt.sched.Cache().TierStats(), id),
				withCase(rt.engine.Solver.TierStats(), id))
		}
	}
	s.stateMu.Lock()
	resp := &StatsResponse{
		UptimeMS: float64(time.Since(s.started)) / float64(time.Millisecond),
		Draining: s.draining,
		Inflight: s.inflight - 1, // exclude this /stats request itself
		Requests: RequestCounts{Gate: s.reqGate, Assert: s.reqAssert, Refused: s.reqRefused},
	}
	s.stateMu.Unlock()
	resp.Admission = s.adm.snapshot()
	resp.Cases = cases
	resp.Snapshot = s.snapshots.Stats()
	resp.Solver = solver
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		resp.Store = &ss
		resp.Tiers = tiers
	}
	resp.Watcher = s.watch.statsSnapshot()
	resp.HistoryLen = s.hist.Len()
	writeJSON(w, http.StatusOK, resp)
}

// withCase qualifies a tier-stats cache name with its case id (the
// snapshot cache is server-wide; fingerprint and solver tiers are per
// case).
func withCase(ts store.TierStats, id string) store.TierStats {
	ts.Cache = ts.Cache + ":" + id
	return ts
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var req WatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Root == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("need root"))
		return
	}
	if err := s.RegisterRoot(req.Root); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, s.watch.statsSnapshot())
}

// cacheDelta assembles the per-request cache ledger from the scheduler's
// run stats and the counter growth observed across the run. The solver
// delta is read from the case engine's private query cache, so it is exact
// even when other cases run concurrently.
func (s *Server) cacheDelta(rt *caseRuntime, solverBefore smt.QueryCacheStats, snapBefore program.CacheStats, st *sched.Stats) CacheDelta {
	d := CacheDelta{}
	if st != nil {
		d.SchedJobs = st.Jobs
		d.SchedExecuted = st.Executed
		d.SchedCacheHits = st.CacheHits
	}
	qd := rt.engine.Solver.Stats().Sub(solverBefore)
	d.SolverQueries = qd.Queries
	d.SolverCacheHits = qd.Hits
	sd := s.snapshots.Stats().Sub(snapBefore)
	d.SnapshotHits = sd.Hits
	d.SnapshotMisses = sd.Misses
	d.SnapshotCompiles = sd.Compiles
	return d
}

func gateVerdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "BLOCKED"
}

func assertVerdict(violations int) string {
	if violations > 0 {
		return "VIOLATED"
	}
	return "PASS"
}

// gateDetail summarizes a gate result for the history ring: the diffstat
// plus the finding severity split.
func gateDetail(res *ci.Result) string {
	blocks, warns := 0, 0
	for _, f := range res.Findings {
		switch f.Severity {
		case "BLOCK":
			blocks++
		case "WARN":
			warns++
		}
	}
	detail := fmt.Sprintf("%d block, %d warn", blocks, warns)
	if res.DiffStat != "" {
		detail = res.DiffStat + "; " + detail
	}
	return detail
}

// shortHash is the content address of a source, truncated for audit logs.
func shortHash(source string) string {
	h := program.Hash(source)
	if len(h) > 12 {
		h = h[:12]
	}
	return h
}

// serveJSON is the handler of a request endpoint: decode the request,
// call the Server method that runs it, and encode its response or its
// error's status.
func serveJSON[Req, Resp any](call func(Req) (*Resp, error)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := call(req)
		if err != nil {
			status := http.StatusInternalServerError
			var se *statusError
			if errors.As(err, &se) {
				status = se.status
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// statusError is a failed request and the HTTP status the daemon answers
// it with.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// maxRequestBytes bounds a request body. The largest source a request
// carries, the paper-scale 10,000-site stress system, is 3.4 MB.
const maxRequestBytes = 16 << 20

// decodeJSON decodes r's body into v, or answers the request and reports
// false: 413 for a body past maxRequestBytes, 400 for any other body that
// does not decode.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("decode request: %w", err))
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
