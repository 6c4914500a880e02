package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"lisa/internal/ci"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/ticket"
)

// newTestServer returns a daemon over the full corpus plus a client bound
// to an httptest transport.
func newTestServer(t testing.TB, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	if cfg.Corpus == nil {
		cfg.Corpus = corpus.Load()
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	cl := NewClient(ts.URL)
	return srv, cl, ts.Close
}

// localTwin builds the sequential in-process twin of a server case
// runtime: a fresh engine with the case's tickets processed, exactly as
// the CLI does on every cold invocation.
func localTwin(t testing.TB, cs *ticket.Case) *core.Engine {
	t.Helper()
	e := core.New()
	for _, tk := range cs.Tickets {
		if _, err := e.ProcessTicket(tk); err != nil {
			t.Fatalf("process %s: %v", tk.ID, err)
		}
	}
	return e
}

func corpusCase(t testing.TB, id string) *ticket.Case {
	t.Helper()
	cs := corpus.Load().Get(id)
	if cs == nil {
		t.Fatalf("corpus has no case %q", id)
	}
	return cs
}

// TestServerSmoke is the wiring check verify.sh runs by name: start a real
// listener, one gate round-trip through the HTTP client, clean shutdown.
func TestServerSmoke(t *testing.T) {
	srv := New(Config{Corpus: corpus.Load()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	cl := NewClient("http://" + ln.Addr().String())
	if err := cl.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	cs := corpusCase(t, "zk-ephemeral")
	resp, err := cl.Gate(GateRequest{Case: "zk-ephemeral", Change: cs.Head(), Summary: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report == "" || resp.Summary == "" {
		t.Fatalf("gate response missing report or summary: %+v", resp)
	}
	if resp.Verdict != "PASS" && resp.Verdict != "BLOCKED" {
		t.Fatalf("unexpected verdict %q", resp.Verdict)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := cl.Health(); err == nil {
		t.Fatal("health should fail after shutdown")
	}
}

// TestGateByteIdentity pins the wire contract: the report, findings, and
// decision returned by the daemon are byte-identical to a local sequential
// ci.Gate over the same inputs — for a passing head change and for a
// regression that must block.
func TestGateByteIdentity(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	cs := corpusCase(t, "zk-ephemeral")
	regressed := cs.Tickets[len(cs.Tickets)-1].BuggySource

	for _, tt := range []struct {
		name   string
		change string
	}{
		{"head", cs.Head()},
		{"regression", regressed},
	} {
		resp, err := cl.Gate(GateRequest{Case: cs.ID, Change: tt.change, Summary: "twin"})
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		seq, err := ci.GateWith(localTwin(t, cs), ci.Change{
			Summary:   "twin",
			OldSource: cs.Head(),
			NewSource: tt.change,
		}, cs.Tests, ci.GateOptions{})
		if err != nil {
			t.Fatalf("%s: local twin: %v", tt.name, err)
		}
		if resp.Pass != seq.Pass {
			t.Errorf("%s: pass=%v, local %v", tt.name, resp.Pass, seq.Pass)
		}
		if got, want := resp.Report, seq.Report.Render(); got != want {
			t.Errorf("%s: remote report differs from local sequential render:\n--- remote ---\n%s\n--- local ---\n%s", tt.name, got, want)
		}
		var wantFindings []Finding
		for _, f := range seq.Findings {
			wantFindings = append(wantFindings, Finding{Severity: f.Severity, Text: f.Text})
		}
		if !reflect.DeepEqual(resp.Findings, wantFindings) {
			t.Errorf("%s: findings differ:\nremote: %v\nlocal:  %v", tt.name, resp.Findings, wantFindings)
		}
	}
}

// TestGateIncremental: an incremental remote gate (head-primed fingerprint
// cache) reaches the same decision, findings, and report as the local
// sequential gate, and reports cache reuse.
func TestGateIncremental(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	cs := corpusCase(t, "zk-session-expiry")
	regressed := cs.Tickets[len(cs.Tickets)-1].BuggySource

	resp, err := cl.Gate(GateRequest{Case: cs.ID, Change: regressed, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ci.GateWith(localTwin(t, cs), ci.Change{
		Summary:   "proposed change",
		OldSource: cs.Head(),
		NewSource: regressed,
	}, cs.Tests, ci.GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Pass != seq.Pass {
		t.Errorf("pass=%v, local %v", resp.Pass, seq.Pass)
	}
	if got, want := resp.Report, seq.Report.Render(); got != want {
		t.Errorf("incremental remote report differs from local sequential render")
	}
	if resp.Cache.SchedCacheHits == 0 {
		t.Errorf("incremental gate after head priming should hit the fingerprint cache, got %+v", resp.Cache)
	}
}

// TestAssertByteIdentity: remote asserts (head, a ticket version, and with
// tests) render byte-identically to the sequential engine.
func TestAssertByteIdentity(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	cs := corpusCase(t, "zk-ephemeral")

	for _, tt := range []struct {
		name    string
		version string
		tests   bool
	}{
		{"head", "head", false},
		{"default", "", false},
		{"buggy", cs.Tickets[0].ID + ":buggy", false},
		{"fixed", cs.Tickets[0].ID + ":fixed", false},
		{"head+tests", "head", true},
	} {
		resp, err := cl.Assert(AssertRequest{Case: cs.ID, Version: tt.version, Tests: tt.tests})
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		target, err := cs.Version(tt.version)
		if err != nil {
			t.Fatal(err)
		}
		var tests []ticket.TestCase
		if tt.tests {
			tests = cs.Tests
		}
		rep, err := localTwin(t, cs).Assert(target, tests)
		if err != nil {
			t.Fatalf("%s: local twin: %v", tt.name, err)
		}
		if got, want := resp.Report, rep.Render(); got != want {
			t.Errorf("%s: remote report differs from local sequential render:\n--- remote ---\n%s\n--- local ---\n%s", tt.name, got, want)
		}
		if resp.Counts.Violations != rep.Counts.Violations {
			t.Errorf("%s: violations=%d, local %d", tt.name, resp.Counts.Violations, rep.Counts.Violations)
		}
	}
}

// TestAssertBadVersion: version resolution errors surface as 4xx, not 500.
// A misspelled side is rejected, as the lisa CLI rejects it.
func TestAssertBadVersion(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	for _, version := range []string{"nope:sideways", "ZKS-1208:bugy", "ZKS-1208", "ZKS-9999:buggy", "latest"} {
		_, err := cl.Assert(AssertRequest{Case: "zk-ephemeral", Version: version})
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("version %q: err = %v, want a 400", version, err)
		}
	}
	if _, err := cl.Assert(AssertRequest{Case: "no-such-case"}); err == nil {
		t.Fatal("want error for unknown case")
	}
}

// TestRequestBodyBound: a /gate body one byte past maxRequestBytes gets
// 413, a body that is not JSON keeps 400, and the daemon gates the next
// request as usual.
func TestRequestBodyBound(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	cs := corpusCase(t, "zk-ephemeral")
	base, err := json.Marshal(GateRequest{Case: cs.ID})
	if err != nil {
		t.Fatal(err)
	}
	oversized, err := json.Marshal(GateRequest{Case: cs.ID, Change: strings.Repeat("x", maxRequestBytes+1-len(base))})
	if err != nil {
		t.Fatal(err)
	}
	if len(oversized) != maxRequestBytes+1 {
		t.Fatalf("body is %d bytes, want %d", len(oversized), maxRequestBytes+1)
	}
	for _, tt := range []struct {
		name string
		body []byte
		want int
	}{
		{"oversized", oversized, http.StatusRequestEntityTooLarge},
		{"not json", []byte(`{"case":`), http.StatusBadRequest},
	} {
		resp, err := http.Post(cl.base+"/gate", "application/json", bytes.NewReader(tt.body))
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tt.want {
			t.Errorf("%s: status %d, want %d", tt.name, resp.StatusCode, tt.want)
		}
	}
	resp, err := cl.Gate(GateRequest{Case: cs.ID, Change: cs.Head()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != "PASS" {
		t.Errorf("gate after the rejected bodies: verdict %q, want PASS", resp.Verdict)
	}
}

// TestWarmRepeatServedFromCaches: the second identical gate is served
// almost entirely from the scheduler fingerprint cache, and the snapshot
// cache stops compiling — the daemon's whole reason to exist.
func TestWarmRepeatServedFromCaches(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	cs := corpusCase(t, "zk-ephemeral")

	cold, err := cl.Gate(GateRequest{Case: cs.ID, Change: cs.Head()})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cl.Gate(GateRequest{Case: cs.ID, Change: cs.Head()})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report != warm.Report || cold.Pass != warm.Pass {
		t.Fatal("warm repeat changed the report")
	}
	if warm.Cache.SchedExecuted != 0 {
		t.Errorf("warm repeat executed %d jobs, want 0 (all fingerprint hits); delta %+v", warm.Cache.SchedExecuted, warm.Cache)
	}
	if warm.Cache.SnapshotCompiles != 0 {
		t.Errorf("warm repeat compiled %d snapshots, want 0", warm.Cache.SnapshotCompiles)
	}
	if warm.Skipped == 0 {
		t.Errorf("warm repeat skipped no contracts, want all skipped; got asserted=%d skipped=%d", warm.Asserted, warm.Skipped)
	}
}

// TestStatsPerInstance pins the per-instance delta accounting: a server
// created after another one worked sees none of that traffic in its own
// /stats (solver counters are baselined at creation; the snapshot cache is
// private), so tests can run several servers in one process and read each
// server's numbers.
func TestStatsPerInstance(t *testing.T) {
	_, clA, doneA := newTestServer(t, Config{})
	defer doneA()
	if _, err := clA.Gate(GateRequest{Case: "zk-ephemeral", Change: corpusCase(t, "zk-ephemeral").Head()}); err != nil {
		t.Fatal(err)
	}
	statsA, err := clA.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if statsA.Solver.Queries == 0 || statsA.Snapshot.Compiles == 0 {
		t.Fatalf("server A should have observed its own work: %+v", statsA)
	}
	if statsA.Requests.Gate != 1 {
		t.Errorf("server A gate count = %d, want 1", statsA.Requests.Gate)
	}

	// B is created after A's traffic: its baseline excludes all of it.
	_, clB, doneB := newTestServer(t, Config{})
	defer doneB()
	statsB, err := clB.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if statsB.Solver.Queries != 0 {
		t.Errorf("fresh server B reports %d solver queries, want 0 (baseline at creation)", statsB.Solver.Queries)
	}
	if statsB.Snapshot.Compiles != 0 || statsB.Snapshot.Entries != 0 {
		t.Errorf("fresh server B snapshot cache not empty: %+v", statsB.Snapshot)
	}
	if len(statsB.Cases) != 0 {
		t.Errorf("fresh server B has case runtimes: %+v", statsB.Cases)
	}

	// B's own work shows up in B, and A's private snapshot cache is
	// untouched by it.
	snapABefore := statsA.Snapshot
	if _, err := clB.Assert(AssertRequest{Case: "zk-session-expiry"}); err != nil {
		t.Fatal(err)
	}
	statsB, err = clB.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if statsB.Requests.Assert != 1 || statsB.Snapshot.Compiles == 0 {
		t.Errorf("server B should have observed its own assert: %+v", statsB)
	}
	statsA, err = clA.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if statsA.Snapshot.Compiles != snapABefore.Compiles {
		t.Errorf("server A snapshot compiles moved from %d to %d while only B worked",
			snapABefore.Compiles, statsA.Snapshot.Compiles)
	}
}

// TestHistoryEndpoint: gate and assert requests land in /history with
// verdicts and cache deltas, newest last, and ?n= trims from the front.
func TestHistoryEndpoint(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	cs := corpusCase(t, "zk-ephemeral")
	if _, err := cl.Gate(GateRequest{Case: cs.ID, Change: cs.Head()}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Assert(AssertRequest{Case: cs.ID}); err != nil {
		t.Fatal(err)
	}
	page, err := cl.History(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 2 || page.Total != 2 {
		t.Fatalf("history = %d entries (total %d), want 2", len(page.Entries), page.Total)
	}
	if page.Entries[0].Kind != "gate" || page.Entries[1].Kind != "assert" {
		t.Fatalf("history order wrong: %+v", page.Entries)
	}
	if page.Entries[0].Cache.SchedJobs == 0 {
		t.Errorf("gate history entry carries no cache delta: %+v", page.Entries[0])
	}
	one, err := cl.History(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Entries) != 1 || one.Entries[0].Kind != "assert" {
		t.Fatalf("history?n=1 should return the newest entry, got %+v", one.Entries)
	}
}

// TestPerRequestBudget: a budgeted gate and assert degrade, and the
// budget ends with its request. A 1 ns run deadline fails every job: the
// gate (incremental, so its head priming runs under the budget too) is
// INCONCLUSIVE and blocks, failing closed, and the assert's semantic is
// INCONCLUSIVE. The next unbudgeted gate and assert on the same case
// render like a local sequential run.
func TestPerRequestBudget(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	cs := corpusCase(t, "zk-ephemeral")
	oneNS := &BudgetSpec{RunTimeoutMS: 1e-6}

	g, err := cl.Gate(GateRequest{Case: cs.ID, Change: cs.Head(), Incremental: true, Budget: oneNS})
	if err != nil {
		t.Fatal(err)
	}
	if g.Pass || g.Verdict != "BLOCKED" || !strings.Contains(g.Summary, "BLOCK [zks-1208-datatree-createephemeral] INCONCLUSIVE") {
		t.Errorf("budgeted gate did not block on INCONCLUSIVE:\n%s", g.Summary)
	}
	a, err := cl.Assert(AssertRequest{Case: cs.ID, Tests: true, Budget: oneNS})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Report, "outcome=INCONCLUSIVE") {
		t.Errorf("budgeted assert did not degrade:\n%s", a.Report)
	}

	g, err = cl.Gate(GateRequest{Case: cs.ID, Change: cs.Head(), Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ci.GateWith(localTwin(t, cs), ci.Change{OldSource: cs.Head(), NewSource: cs.Head()}, cs.Tests, ci.GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Pass != seq.Pass || g.Report != seq.Report.Render() {
		t.Errorf("unbudgeted gate after a budgeted one differs from the local sequential run:\n--- daemon ---\n%s\n--- local ---\n%s", g.Report, seq.Report.Render())
	}
	a, err = cl.Assert(AssertRequest{Case: cs.ID, Tests: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := localTwin(t, cs).Assert(cs.Head(), cs.Tests)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report != rep.Render() {
		t.Errorf("unbudgeted assert after a budgeted one differs from the local sequential run:\n--- daemon ---\n%s\n--- local ---\n%s", a.Report, rep.Render())
	}
}
