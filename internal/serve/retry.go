package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"syscall"
	"time"
)

// HTTPError is a non-200 daemon answer: the status code plus the (plain
// text) body the handlers write. It is a distinct type so callers — and the
// retry layer — can tell a 503 "queued too long" from a 400 "bad spec"
// without parsing message strings.
type HTTPError struct {
	StatusCode int
	Msg        string
}

// Error renders the answer the way the PR-3 client always has, so existing
// callers matching on "daemon answered 404" keep working.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("serve: daemon answered %d: %s", e.StatusCode, e.Msg)
}

// Transient reports whether err is worth retrying against the same (or
// another) daemon. Submissions are content-keyed and the daemon serves
// duplicates from its singleflight and caches, so resending after a dropped
// connection, a daemon restart, or an overload answer is safe — at worst the
// retry is a cache hit. Permanent answers (bad spec, oversized body,
// simulation failure) and a caller's own cancellation are not retried.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var he *HTTPError
	if errors.As(err, &he) {
		switch he.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			// 503 covers both a proxy in front of a dead daemon and the
			// daemon's own "request context expired while queued" overload
			// answer; 504 is a wait that outran the daemon's budget.
			return true
		}
		return false
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		// Only genuinely transport-level url.Errors are retryable; a
		// permanent misconfiguration (unsupported scheme, unparsable URL)
		// resent forever would just churn instead of surfacing to the user.
		return ue.Timeout() || transientTransport(ue.Err)
	}
	return transientTransport(err)
}

// transientTransport classifies bare transport failures: connection
// refused/reset while a daemon restarts, a response truncated mid-body by a
// drain, a probe timeout.
func transientTransport(err error) bool {
	if err == nil {
		return false
	}
	// A name that does not resolve is a typo, not an outage: retrying it
	// would churn through backoffs and cooldowns instead of surfacing the
	// misconfiguration. Resolver timeouts and server failures stay
	// retryable.
	var de *net.DNSError
	if errors.As(err, &de) {
		return !de.IsNotFound
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// retryPolicy caps how retriable operations are retried: up to Attempts
// total tries, sleeping Base before the first retry and doubling up to Cap
// between subsequent ones.
type retryPolicy struct {
	// Attempts is the total number of tries, including the first; values
	// below 1 mean one try (no retries).
	Attempts int
	// Base is the delay before the second attempt; it doubles per retry.
	Base time.Duration
	// Cap bounds the backoff delay.
	Cap time.Duration
}

// defaultRetry is the policy every Client submits under: four tries over
// roughly a second — enough to ride out a daemon restart without stalling a
// sweep behind a truly dead host.
var defaultRetry = retryPolicy{Attempts: 4, Base: 100 * time.Millisecond, Cap: 2 * time.Second}

// Do runs op, retrying transient failures (see Transient) with capped
// exponential backoff. The backoff wait selects on ctx, so canceling the
// context interrupts a sleeping retry ladder instead of letting it finish
// the nap first. It
// returns nil on success, the error unchanged when it is permanent, ctx's
// error when canceled mid-backoff, and the last error wrapped with the
// attempt count when the budget is exhausted — so "retries exhausted" is
// distinguishable from "failed once" in logs while errors.As still reaches
// the underlying *HTTPError.
func (p retryPolicy) Do(ctx context.Context, op func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(p.backoff(attempt - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
		if err = op(); err == nil || !Transient(err) {
			return err
		}
	}
	return fmt.Errorf("serve: retries exhausted after %d attempts: %w", attempts, err)
}

// backoff returns the delay after the n-th failed attempt (n starts at 0):
// Base<<n, bounded by Cap. Zero-value Base and Cap fall back to the
// defaultRetry bounds so a partially-filled policy stays sane.
func (p retryPolicy) backoff(n int) time.Duration {
	base, ceil := p.Base, p.Cap
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = defaultRetry.Cap
	}
	if n > 20 {
		n = 20 // the shift below must not overflow
	}
	d := base << uint(n)
	if d > ceil {
		d = ceil
	}
	return d
}
