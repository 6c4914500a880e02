package server

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// flakyTransport fails the first n round-trips with a connection error,
// then delegates to the real transport.
type flakyTransport struct {
	fail  int
	tries int
	next  http.RoundTripper
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	f.tries++
	if f.tries <= f.fail {
		return nil, &net.OpError{Op: "dial", Err: fmt.Errorf("connection refused (injected)")}
	}
	return f.next.RoundTrip(r)
}

// TestRetryRecoversFromConnectionErrors: the client rides out transient
// connection failures and succeeds on the attempt that reaches the daemon
// — with exactly as many round-trips as the failure count demanded.
func TestRetryRecoversFromConnectionErrors(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	ft := &flakyTransport{fail: 2, next: http.DefaultTransport}
	cl.SetHTTPClient(&http.Client{Transport: ft})
	cl.SetRetryPolicy(RetryPolicy{Retries: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond})

	cs := corpusCase(t, "zk-ephemeral")
	resp, err := cl.Gate(GateRequest{Case: cs.ID, Change: cs.Head()})
	if err != nil {
		t.Fatalf("gate through flaky transport: %v", err)
	}
	if resp.Report == "" {
		t.Fatal("empty report after retries")
	}
	if ft.tries != 3 {
		t.Fatalf("round-trips = %d, want 3 (2 failures + 1 success)", ft.tries)
	}
}

// TestRemoteErrorClassification pins the error taxonomy: dead daemon →
// connection failed (after every retry), draining daemon → server
// draining, bad request → request failed with no retry. The error texts
// must stay distinguishable — the CLI maps them to distinct exit codes.
func TestRemoteErrorClassification(t *testing.T) {
	t.Run("connect", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close() // nothing listens here anymore
		cl := NewClient("http://" + addr)
		cl.SetRetryPolicy(RetryPolicy{Retries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
		_, err = cl.Gate(GateRequest{Case: "x", Change: "y"})
		re, ok := err.(*RemoteError)
		if !ok || re.Kind != RemoteConnect {
			t.Fatalf("dead daemon error = %v (%T), want RemoteConnect", err, err)
		}
		if re.Attempts != 3 {
			t.Errorf("attempts = %d, want 3", re.Attempts)
		}
		if !strings.Contains(re.Error(), "connection failed") {
			t.Errorf("error text %q should name the connection failure", re.Error())
		}
	})
	t.Run("drain", func(t *testing.T) {
		srv, cl, done := newTestServer(t, Config{})
		defer done()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		cl.SetRetryPolicy(RetryPolicy{Retries: 1, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
		_, err := cl.Gate(GateRequest{Case: "x", Change: "y"})
		re, ok := err.(*RemoteError)
		if !ok || re.Kind != RemoteDrain {
			t.Fatalf("draining daemon error = %v, want RemoteDrain", err)
		}
		if !strings.Contains(re.Error(), "server draining") {
			t.Errorf("error text %q should name the drain", re.Error())
		}
	})
	t.Run("overload", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server overloaded: 2 running, 2 queued"))
		}))
		defer ts.Close()
		cl := NewClient(ts.URL)
		cl.SetRetryPolicy(RetryPolicy{Retries: 1, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
		start := time.Now()
		_, err := cl.Gate(GateRequest{Case: "x", Change: "y"})
		re, ok := err.(*RemoteError)
		if !ok || re.Kind != RemoteOverload {
			t.Fatalf("overloaded daemon error = %v, want RemoteOverload", err)
		}
		// Retry-After: 1 floors the backoff: the retry waited at least 1s.
		if d := time.Since(start); d < time.Second {
			t.Errorf("retry ignored Retry-After floor: total %v", d)
		}
	})
	t.Run("http-no-retry", func(t *testing.T) {
		_, cl, done := newTestServer(t, Config{})
		defer done()
		cl.SetRetryPolicy(RetryPolicy{Retries: 3, BaseDelay: time.Millisecond})
		_, err := cl.Gate(GateRequest{Case: "no-such-case", Change: "y"})
		re, ok := err.(*RemoteError)
		if !ok || re.Kind != RemoteHTTP {
			t.Fatalf("bad request error = %v, want RemoteHTTP", err)
		}
		if re.Attempts != 1 {
			t.Errorf("non-transient failure retried: %d attempts", re.Attempts)
		}
	})
}

// TestBackoffDeterministicAndBounded: the same seed replays the same
// delay sequence, delays grow exponentially within [base/2, max], and the
// server's Retry-After floors the result.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Seed: 42}
	a, b := rand.New(rand.NewSource(p.Seed)), rand.New(rand.NewSource(p.Seed))
	for attempt := 1; attempt <= 6; attempt++ {
		da := p.backoff(attempt, 0, a)
		db := p.backoff(attempt, 0, b)
		if da != db {
			t.Fatalf("attempt %d: same seed, different delays: %v vs %v", attempt, da, db)
		}
		ceil := p.BaseDelay << (attempt - 1)
		if ceil > p.MaxDelay {
			ceil = p.MaxDelay
		}
		if da < ceil/2 || da > ceil {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, da, ceil/2, ceil)
		}
	}
	other := rand.New(rand.NewSource(7))
	if d := p.backoff(1, 3*time.Second, other); d < 3*time.Second {
		t.Errorf("Retry-After floor ignored: %v", d)
	}
}

// TestOverallDeadlineStopsRetrying: with a short overall budget the client
// gives up as a timeout instead of sleeping through its retry schedule.
func TestOverallDeadlineStopsRetrying(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cl := NewClient("http://" + addr)
	cl.SetRetryPolicy(RetryPolicy{
		Retries:        50,
		BaseDelay:      40 * time.Millisecond,
		MaxDelay:       40 * time.Millisecond,
		OverallTimeout: 150 * time.Millisecond,
	})
	start := time.Now()
	_, err = cl.Gate(GateRequest{Case: "x", Change: "y"})
	re, ok := err.(*RemoteError)
	if !ok || re.Kind != RemoteTimeout {
		t.Fatalf("budget-bounded failure = %v, want RemoteTimeout", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("client kept retrying past its overall budget: %v", d)
	}
}
