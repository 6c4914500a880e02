package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the thin remote mode of the lisa CLI: it speaks the daemon's
// JSON API so a cold client process rides the server's warm caches instead
// of re-paying the front end locally. With a RetryPolicy set it retries
// transient failures (connection errors, timeouts, 503-drain, overload
// sheds) under seeded jittered backoff and classifies the final failure as
// a *RemoteError.
type Client struct {
	base   string
	http   *http.Client
	policy RetryPolicy
	token  string
}

// NewClient returns a client for a daemon at base (e.g.
// "http://127.0.0.1:7333"). Requests carry no deadline and no retries by
// default — gate runs are bounded by the server's budget, not the
// transport — use SetRetryPolicy for resilience and SetHTTPClient for
// transport-level deadlines.
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{},
	}
}

// SetHTTPClient replaces the underlying transport (tests, custom timeouts).
func (c *Client) SetHTTPClient(hc *http.Client) { c.http = hc }

// SetRetryPolicy turns on retry/backoff/deadline handling for every call.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.policy = p }

// SetToken attaches the client identity the daemon's admission quotas key
// on (the X-Lisa-Token header); empty means anonymous.
func (c *Client) SetToken(token string) { c.token = token }

// Gate submits a proposed change to the daemon's CI gate.
func (c *Client) Gate(req GateRequest) (*GateResponse, error) {
	var resp GateResponse
	if err := c.do(http.MethodPost, "/gate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Assert asserts a case's rules over a version of its system.
func (c *Client) Assert(req AssertRequest) (*AssertResponse, error) {
	var resp AssertResponse
	if err := c.do(http.MethodPost, "/assert", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the server's aggregated cache and request counters.
func (c *Client) Stats() (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.do(http.MethodGet, "/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// HistoryPage is the /history payload: the retained entries plus the
// total ever recorded (so a reader can tell how much fell off the ring).
type HistoryPage struct {
	Total   uint64         `json:"total"`
	Entries []HistoryEntry `json:"entries"`
}

// History fetches the last n audit entries (all retained when n <= 0).
func (c *Client) History(n int) (*HistoryPage, error) {
	path := "/history"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	var resp HistoryPage
	if err := c.do(http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Watch registers a directory root with the server's file watcher.
func (c *Client) Watch(root string) (*WatcherStats, error) {
	var resp WatcherStats
	if err := c.do(http.MethodPost, "/watch", WatchRequest{Root: root}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health pings the daemon; an error means unreachable or draining.
func (c *Client) Health() error {
	return c.do(http.MethodGet, "/healthz", nil, &struct {
		Status string `json:"status"`
	}{})
}

// WaitReady polls /healthz until the daemon answers or the deadline
// passes (startup convenience for scripts and tests).
func (c *Client) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var err error
	for time.Now().Before(deadline) {
		if err = c.Health(); err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not ready after %v: %w", c.base, timeout, err)
}

// do runs one API call under the retry policy: the request is rebuilt
// per attempt (the body reader is consumed by each try), transient
// failures back off with seeded jitter — floored at the server's
// Retry-After hint — and the final failure comes back as a *RemoteError
// carrying its classification and attempt count. The jitter source is
// seeded at the first retry: seeding one costs more than most calls, and
// most calls never retry.
func (c *Client) do(method, path string, in, out any) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return err
		}
	}
	attempts := c.policy.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var overall time.Time
	if c.policy.OverallTimeout > 0 {
		overall = time.Now().Add(c.policy.OverallTimeout)
	}
	var rng *rand.Rand
	var last *RemoteError
	var retryAfter time.Duration
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if rng == nil {
				rng = rand.New(rand.NewSource(c.policy.Seed))
			}
			delay := c.policy.backoff(attempt-1, retryAfter, rng)
			if !overall.IsZero() && time.Now().Add(delay).After(overall) {
				last.Kind = RemoteTimeout
				last.Err = fmt.Errorf("overall deadline %v exhausted before retry %d: %w", c.policy.OverallTimeout, attempt, last.Err)
				return last
			}
			time.Sleep(delay)
		}
		kind, ra, err := c.attempt(method, path, data, out)
		if err == nil {
			return nil
		}
		last = &RemoteError{Kind: kind, Attempts: attempt, Err: err}
		if !last.Transient() {
			return last
		}
		retryAfter = ra
		if !overall.IsZero() && !time.Now().Before(overall) {
			last.Kind = RemoteTimeout
			return last
		}
	}
	return last
}

// attempt is one round-trip: build, send, classify. The returned duration
// is the server's Retry-After hint (0 = none).
func (c *Client) attempt(method, path string, data []byte, out any) (RemoteErrorKind, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(data))
	if err != nil {
		return RemoteHTTP, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.token != "" {
		req.Header.Set(clientTokenHeader, c.token)
	}
	if c.policy.AttemptTimeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), c.policy.AttemptTimeout)
		defer cancel()
		req = req.WithContext(ctx)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		if isTimeout(err) {
			return RemoteTimeout, 0, err
		}
		return RemoteConnect, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			// A response cut off mid-body means the daemon died while
			// replying — a connection failure, not a protocol bug.
			return RemoteConnect, 0, fmt.Errorf("response truncated: %w", err)
		}
		return 0, 0, nil
	}
	var ra time.Duration
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, perr := strconv.Atoi(v); perr == nil && secs > 0 {
			ra = time.Duration(secs) * time.Second
		}
	}
	var e errorResponse
	msg := resp.Status
	if derr := json.NewDecoder(resp.Body).Decode(&e); derr == nil && e.Error != "" {
		msg = fmt.Sprintf("%s (%s)", e.Error, resp.Status)
	}
	kind := RemoteHTTP
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		kind = RemoteOverload
	case resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(e.Error, "drain"):
		kind = RemoteDrain
	case resp.StatusCode == http.StatusServiceUnavailable:
		kind = RemoteOverload
	}
	return kind, ra, fmt.Errorf("server: %s", msg)
}

// isTimeout reports whether a transport error is a deadline expiry rather
// than a reachability failure.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
