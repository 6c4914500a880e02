package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lisa/internal/ci"
	"lisa/internal/corpus"
)

// gateRaw fires one /gate over raw HTTP so the test can read status codes
// and headers the typed client folds into errors.
func gateRaw(t *testing.T, url string, req GateRequest, token string) (*http.Response, *GateResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/gate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if token != "" {
		hreq.Header.Set(clientTokenHeader, token)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("gate request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var gr GateResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatalf("decode gate response: %v", err)
	}
	return resp, &gr
}

// waitUntil polls cond for up to two seconds; admission state transitions
// under test are sub-millisecond, the window is generosity for CI boxes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestOverloadHammer floods a small-admission server with concurrent gates:
// some are admitted (directly or through the queue), the overflow is shed
// with 503 + Retry-After — and every admitted response renders
// byte-identical to the local sequential run. Overload changes who runs,
// never what an admitted run reports.
func TestOverloadHammer(t *testing.T) {
	srv := New(Config{Corpus: corpus.Load(), MaxConcurrent: 2, MaxQueue: 2})
	srv.testRequestDelay = 20 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cs := corpusCase(t, "zk-ephemeral")

	// Warm the case runtime first so hammer responses are fast and the
	// byte-identity comparison covers the warm path too.
	if resp, gr := gateRaw(t, ts.URL, GateRequest{Case: cs.ID, Change: cs.Head()}, ""); gr == nil {
		t.Fatalf("warmup gate: status %d", resp.StatusCode)
	}

	seq, err := ci.GateWith(localTwin(t, cs), ci.Change{
		Summary:   "proposed change",
		OldSource: cs.Head(),
		NewSource: cs.Head(),
	}, cs.Tests, ci.GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Report.Render()

	const clients = 12
	type result struct {
		status     int
		retryAfter string
		report     string
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, gr := gateRaw(t, ts.URL, GateRequest{Case: cs.ID, Change: cs.Head()}, "")
			results[i] = result{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
			if gr != nil {
				results[i].report = gr.Report
			}
		}(i)
	}
	wg.Wait()

	admitted, shed := 0, 0
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			admitted++
			if r.report != want {
				t.Errorf("client %d: admitted report differs from sequential render", i)
			}
		case http.StatusServiceUnavailable:
			shed++
			if r.retryAfter == "" {
				t.Errorf("client %d: 503 without Retry-After", i)
			}
		default:
			t.Errorf("client %d: unexpected status %d", i, r.status)
		}
	}
	if admitted == 0 || shed == 0 {
		t.Fatalf("hammer should split: %d admitted, %d shed of %d", admitted, shed, clients)
	}
	st := srv.adm.snapshot()
	if st.RejectedQueueFull == 0 {
		t.Errorf("no queue-full rejections counted: %+v", st)
	}
	if got := int(st.Admitted); got != admitted+1 { // +1 warmup
		t.Errorf("admission ledger says %d admitted, observed %d", got, admitted+1)
	}
	// Overload shows up in the audit ring alongside the work it displaced.
	overloads := 0
	for _, e := range srv.hist.Last(0) {
		if e.Kind == "overload" {
			overloads++
		}
	}
	if overloads != shed {
		t.Errorf("history records %d overload entries, want %d", overloads, shed)
	}
}

// TestQuotaPerToken: a client class with MaxConcurrent 1 gets its second
// concurrent request rejected with 429 + Retry-After while another token
// is unaffected — quotas isolate noisy clients from each other even with
// global admission off.
func TestQuotaPerToken(t *testing.T) {
	srv := New(Config{
		Corpus: corpus.Load(),
		Quotas: map[string]QuotaClass{"ci-runner": {MaxConcurrent: 1}},
	})
	srv.testRequestDelay = 300 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cs := corpusCase(t, "zk-ephemeral")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, gr := gateRaw(t, ts.URL, GateRequest{Case: cs.ID, Change: cs.Head()}, "ci-runner"); gr == nil {
			t.Errorf("first ci-runner request rejected: status %d", resp.StatusCode)
		}
	}()
	waitUntil(t, "first request admitted", func() bool { return srv.adm.snapshot().Admitted == 1 })

	resp, gr := gateRaw(t, ts.URL, GateRequest{Case: cs.ID, Change: cs.Head()}, "ci-runner")
	if gr != nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second ci-runner request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// A different token is not throttled by ci-runner's class.
	if resp, gr := gateRaw(t, ts.URL, GateRequest{Case: cs.ID, Change: cs.Head()}, "other"); gr == nil {
		t.Errorf("other-token request rejected: status %d", resp.StatusCode)
	}
	wg.Wait()
	if st := srv.adm.snapshot(); st.RejectedQuota != 1 {
		t.Errorf("RejectedQuota = %d, want 1", st.RejectedQuota)
	}
}

// TestWatchPrewarmShedUnderLoad: with every admission slot occupied, a
// poll sheds its prewarm (counted, audited, file forgotten) — and the next
// poll after load falls re-detects the file and warms it. Warmth is the
// first thing overload drops, and dropping it is never permanent.
func TestWatchPrewarmShedUnderLoad(t *testing.T) {
	srv := New(Config{
		Corpus:        corpus.Load(),
		MaxConcurrent: 1,
		MaxQueue:      1,
		WatchInterval: time.Hour, // polls only when the test says so
	})
	srv.testRequestDelay = 300 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cs := corpusCase(t, "zk-ephemeral")

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "sys.mj"), []byte(cs.Head()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterRoot(dir); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gateRaw(t, ts.URL, GateRequest{Case: cs.ID, Change: cs.Head()}, "")
	}()
	waitUntil(t, "gate occupying the slot", func() bool { return srv.adm.snapshot().ActiveNow == 1 })

	st := srv.PollNow()
	if st.PrewarmsShed != 1 || st.Prewarmed != 0 {
		t.Fatalf("saturated poll: shed=%d prewarmed=%d, want 1/0", st.PrewarmsShed, st.Prewarmed)
	}
	wg.Wait()

	st = srv.PollNow()
	if st.Prewarmed != 1 {
		t.Fatalf("idle poll after shed should prewarm, got %+v", st)
	}
	shedSeen, warmSeen := false, false
	for _, e := range srv.hist.Last(0) {
		if e.Kind == "watch" && e.Verdict == "SHED" {
			shedSeen = true
		}
		if e.Kind == "watch" && e.Verdict == "PREWARMED" {
			warmSeen = true
		}
	}
	if !shedSeen || !warmSeen {
		t.Errorf("history missing shed/prewarm audit: shed=%v warm=%v", shedSeen, warmSeen)
	}
}

// TestWatchEndpointShedAtSaturation: /watch registration never queues — a
// saturated server sheds it immediately with 503 + Retry-After.
func TestWatchEndpointShedAtSaturation(t *testing.T) {
	srv := New(Config{Corpus: corpus.Load(), MaxConcurrent: 1, MaxQueue: 1})
	srv.testRequestDelay = 300 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cs := corpusCase(t, "zk-ephemeral")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gateRaw(t, ts.URL, GateRequest{Case: cs.ID, Change: cs.Head()}, "")
	}()
	waitUntil(t, "gate occupying the slot", func() bool { return srv.adm.snapshot().ActiveNow == 1 })

	body, _ := json.Marshal(WatchRequest{Root: t.TempDir()})
	resp, err := http.Post(ts.URL+"/watch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/watch at saturation: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed /watch without Retry-After")
	}
	wg.Wait()
	if st := srv.adm.snapshot(); st.ShedWatch != 1 {
		t.Errorf("ShedWatch = %d, want 1", st.ShedWatch)
	}
}

// TestDrainWithPrewarmAndQueuedRequest is the graceful-drain contract
// under load: with a /watch prewarm in flight and a request queued but not
// admitted, Drain finishes the in-flight work (the admitted gate AND the
// prewarm), rejects the queued request with 503, and leaves the history
// ring deterministically flushed with all three outcomes.
func TestDrainWithPrewarmAndQueuedRequest(t *testing.T) {
	srv := New(Config{
		Corpus:        corpus.Load(),
		MaxConcurrent: 1,
		MaxQueue:      2,
		WatchInterval: 5 * time.Millisecond,
	})
	srv.testRequestDelay = 300 * time.Millisecond
	srv.watch.testPrewarmDelay = 300 * time.Millisecond
	started := make(chan struct{}, 1)
	srv.watch.testPrewarmStarted = started
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cs := corpusCase(t, "zk-ephemeral")

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "sys.mj"), []byte(cs.Head()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterRoot(dir); err != nil {
		t.Fatal(err)
	}
	// The background poll picks the file up and enters its (stretched)
	// prewarm; only then saturate, so the breaker does not shed it.
	<-started

	var wg sync.WaitGroup
	statuses := make([]int, 2)
	wg.Add(1)
	go func() { // admitted, slow
		defer wg.Done()
		resp, _ := gateRaw(t, ts.URL, GateRequest{Case: cs.ID, Change: cs.Head()}, "")
		statuses[0] = resp.StatusCode
	}()
	waitUntil(t, "gate occupying the slot", func() bool { return srv.adm.snapshot().ActiveNow == 1 })
	wg.Add(1)
	go func() { // queued, never admitted
		defer wg.Done()
		resp, _ := gateRaw(t, ts.URL, GateRequest{Case: cs.ID, Change: cs.Head()}, "")
		statuses[1] = resp.StatusCode
	}()
	waitUntil(t, "second gate queued", func() bool { return srv.adm.snapshot().QueuedNow == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	if statuses[0] != http.StatusOK {
		t.Errorf("in-flight gate = %d, want 200 (drain must finish in-flight work)", statuses[0])
	}
	if statuses[1] != http.StatusServiceUnavailable {
		t.Errorf("queued gate = %d, want 503 (drain must reject queued work)", statuses[1])
	}
	if st := srv.adm.snapshot(); st.RejectedDraining != 1 {
		t.Errorf("RejectedDraining = %d, want 1", st.RejectedDraining)
	}
	// The flushed history holds all three outcomes: the finished prewarm,
	// the finished gate, and the rejected queued request.
	kinds := map[string]int{}
	verdicts := map[string]int{}
	for _, e := range srv.hist.Last(0) {
		kinds[e.Kind]++
		verdicts[e.Kind+"/"+e.Verdict]++
	}
	if verdicts["watch/PREWARMED"] == 0 {
		t.Errorf("history lost the in-flight prewarm: %v", verdicts)
	}
	if kinds["gate"] != 1 {
		t.Errorf("history gate entries = %d, want 1", kinds["gate"])
	}
	if kinds["overload"] != 1 {
		t.Errorf("history overload entries = %d, want 1", kinds["overload"])
	}
}
