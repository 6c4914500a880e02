package server

import (
	"fmt"
	"math/rand"
	"time"
)

// Remote-transport resilience: the client classifies every failure of a
// daemon round-trip (connection refused, timed out, 503-drain, overload
// shed, or a plain HTTP error), retries the transient kinds under a
// seeded-deterministic jittered exponential backoff, and reports what
// actually went wrong — so `lisa gate -remote` can distinguish "daemon
// dead" (fail over to local execution) from "change rejected" (a real
// verdict), and scripts can branch on distinct exit codes instead of one
// opaque error string.

// RemoteErrorKind classifies why a remote request failed.
type RemoteErrorKind int

const (
	// RemoteConnect: the daemon was unreachable — connection refused or
	// reset, DNS failure, or a response cut off mid-body (the daemon died
	// while replying). Retryable; the failover trigger.
	RemoteConnect RemoteErrorKind = iota
	// RemoteTimeout: the attempt or overall deadline expired. Retryable
	// per attempt (the next attempt may land on a healthier daemon); the
	// failover trigger once the budget is spent.
	RemoteTimeout
	// RemoteDrain: the daemon answered 503 because it is draining for
	// shutdown. Retryable — a restarting daemon comes back — and the
	// failover trigger once retries are exhausted.
	RemoteDrain
	// RemoteOverload: the daemon shed the request (503 queue-full / watch
	// shed) or the client's quota class is exhausted (429). Retryable,
	// honoring the server's Retry-After as the backoff floor.
	RemoteOverload
	// RemoteHTTP: any other HTTP-level failure (400 bad request, 404
	// unknown case, 413 body too large, 422, 500). Not retryable: the
	// request itself is wrong or the server genuinely failed it, and a
	// retry reproduces it.
	RemoteHTTP
)

// String names the kind the way error text and logs spell it.
func (k RemoteErrorKind) String() string {
	switch k {
	case RemoteConnect:
		return "connection failed"
	case RemoteTimeout:
		return "timed out"
	case RemoteDrain:
		return "server draining"
	case RemoteOverload:
		return "server overloaded"
	case RemoteHTTP:
		return "request failed"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// RemoteError is the classified failure of a remote call after all
// configured retries.
type RemoteError struct {
	// Kind is the classification of the final attempt.
	Kind RemoteErrorKind
	// Attempts is how many round-trips were tried.
	Attempts int
	// Err is the final attempt's underlying error.
	Err error
}

func (e *RemoteError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("remote: %s after %d attempts: %v", e.Kind, e.Attempts, e.Err)
	}
	return fmt.Sprintf("remote: %s: %v", e.Kind, e.Err)
}

func (e *RemoteError) Unwrap() error { return e.Err }

// Transient reports whether the failure class can heal on its own —
// exactly the kinds worth retrying, and (minus overload) the kinds worth
// failing over to local execution for.
func (e *RemoteError) Transient() bool {
	switch e.Kind {
	case RemoteConnect, RemoteTimeout, RemoteDrain, RemoteOverload:
		return true
	}
	return false
}

// Default retry posture of the lisa CLI's -remote mode; the
// -remote-retries / -remote-timeout flags override it.
const (
	// DefaultRemoteRetries is how many times a transient failure is
	// retried after the first attempt.
	DefaultRemoteRetries = 3
	// DefaultRetryBaseDelay seeds the exponential backoff.
	DefaultRetryBaseDelay = 50 * time.Millisecond
	// DefaultRetryMaxDelay caps any single backoff sleep.
	DefaultRetryMaxDelay = 2 * time.Second
)

// RetryPolicy configures the client's resilience. The zero value means
// "one attempt, no deadlines" — the historical behavior of NewClient.
type RetryPolicy struct {
	// Retries is how many additional attempts follow a transient failure
	// (total attempts = Retries + 1).
	Retries int
	// BaseDelay is the pre-jitter backoff before the first retry; each
	// further retry doubles it (0 = DefaultRetryBaseDelay when Retries>0).
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter backoff (0 = DefaultRetryMaxDelay).
	MaxDelay time.Duration
	// Seed makes the jitter deterministic: the same seed yields the same
	// delay sequence. The CLI leaves it zero, so a replayed invocation
	// sleeps the exact same schedule.
	Seed int64
	// AttemptTimeout bounds one round-trip (0 = none). The CLI derives it
	// from the -run-timeout budget plus transport slack: one attempt is
	// one server-side run, bounded by the same budget.
	AttemptTimeout time.Duration
	// OverallTimeout bounds all attempts plus backoff sleeps (0 = none).
	// The CLI sets it from -remote-timeout.
	OverallTimeout time.Duration
}

// DefaultRetryPolicy is the CLI's -remote posture: 3 retries, 50ms base,
// 2s cap, no deadlines beyond the request budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Retries:   DefaultRemoteRetries,
		BaseDelay: DefaultRetryBaseDelay,
		MaxDelay:  DefaultRetryMaxDelay,
	}
}

// backoff computes the sleep before retry number attempt (1-based): an
// exponential from BaseDelay, capped at MaxDelay, jittered to 50–100% by
// rng, and floored at the server's Retry-After hint when one was given.
func (p RetryPolicy) backoff(attempt int, retryAfter time.Duration, rng *rand.Rand) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultRetryBaseDelay
	}
	max := p.MaxDelay
	if max <= 0 {
		max = DefaultRetryMaxDelay
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}
