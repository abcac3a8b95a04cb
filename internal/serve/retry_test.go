package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"strings"
	"syscall"
	"testing"
	"time"
)

// Transient must retry overload/transport failures and refuse permanent
// answers: a 400 "bad spec" resent forever would never get better, while a
// 503 from a draining daemon will.
func TestTransientClassification(t *testing.T) {
	for name, tc := range map[string]struct {
		err  error
		want bool
	}{
		"nil":                {nil, false},
		"502":                {&HTTPError{StatusCode: 502, Msg: "x"}, true},
		"503":                {&HTTPError{StatusCode: 503, Msg: "x"}, true},
		"504":                {&HTTPError{StatusCode: 504, Msg: "x"}, true},
		"400 bad spec":       {&HTTPError{StatusCode: 400, Msg: "x"}, false},
		"404 miss":           {&HTTPError{StatusCode: 404, Msg: "x"}, false},
		"413 too large":      {&HTTPError{StatusCode: 413, Msg: "x"}, false},
		"500 sim failure":    {&HTTPError{StatusCode: 500, Msg: "x"}, false},
		"wrapped http":       {fmt.Errorf("outer: %w", &HTTPError{StatusCode: 503, Msg: "x"}), true},
		"url conn refused":   {&url.Error{Op: "Post", URL: "http://x", Err: &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}}, true},
		"url bad scheme":     {&url.Error{Op: "Post", URL: "htp://x", Err: errors.New(`unsupported protocol scheme "htp"`)}, false},
		"dns not found":      {&url.Error{Op: "Post", URL: "http://tpyo", Err: &net.DNSError{Err: "no such host", Name: "tpyo", IsNotFound: true}}, false},
		"dns timeout":        {&url.Error{Op: "Post", URL: "http://slow", Err: &net.DNSError{Err: "i/o timeout", Name: "slow", IsTimeout: true}}, true},
		"wrapped conn reset": {fmt.Errorf("serve: submit: %w", syscall.ECONNRESET), true},
		"conn refused":       {syscall.ECONNREFUSED, true},
		"plain error":        {errors.New("nope"), false},
	} {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("%s: Transient = %v, want %v", name, got, tc.want)
		}
	}
}

// Do must retry transient failures up to the attempt budget, stop
// immediately on success or a permanent error, and wrap the final error
// with the attempt count when the budget is exhausted.
func TestRetryPolicyDo(t *testing.T) {
	fast := retryPolicy{Attempts: 4, Base: time.Millisecond, Cap: 4 * time.Millisecond}

	calls := 0
	err := fast.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return &HTTPError{StatusCode: 503, Msg: "draining"}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("transient-then-success: err=%v calls=%d, want nil after 3", err, calls)
	}

	calls = 0
	perm := &HTTPError{StatusCode: 400, Msg: "bad spec"}
	if err := fast.Do(context.Background(), func() error { calls++; return perm }); !errors.Is(err, perm) || calls != 1 {
		t.Errorf("permanent: err=%v calls=%d, want the error itself after 1 call", err, calls)
	}

	calls = 0
	err = fast.Do(context.Background(), func() error { calls++; return &HTTPError{StatusCode: 503, Msg: "still down"} })
	if calls != fast.Attempts {
		t.Errorf("exhausted: %d calls, want %d", calls, fast.Attempts)
	}
	if err == nil || !strings.Contains(err.Error(), "retries exhausted after 4 attempts") {
		t.Errorf("exhausted error %v does not carry the attempt count", err)
	}
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != 503 {
		t.Errorf("exhausted error %v does not unwrap to the underlying HTTPError", err)
	}
}

// The backoff sequence must double from Base and never exceed Cap.
func TestRetryBackoffCaps(t *testing.T) {
	p := retryPolicy{Attempts: 10, Base: 10 * time.Millisecond, Cap: 40 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 40, 40}
	for n, w := range want {
		if got := p.backoff(n); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", n, got, w*time.Millisecond)
		}
	}
	// Huge attempt counts must not overflow the shift into a negative delay.
	if got := p.backoff(64); got != 40*time.Millisecond {
		t.Errorf("backoff(64) = %v, want the cap", got)
	}
	// A zero-value Cap falls back to the default bound instead of growing
	// the backoff without limit.
	loose := retryPolicy{Attempts: 25, Base: 100 * time.Millisecond}
	if got := loose.backoff(20); got != defaultRetry.Cap {
		t.Errorf("zero-Cap backoff(20) = %v, want the default cap %v", got, defaultRetry.Cap)
	}
}

// A canceled context must interrupt the backoff wait itself — the
// regression dkipvet's ctxhygiene analyzer pinned: Do used to sleep out
// its full backoff even after the caller had given up.
func TestRetryPolicyDoCanceledMidBackoff(t *testing.T) {
	slow := retryPolicy{Attempts: 3, Base: time.Hour, Cap: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		done <- slow.Do(ctx, func() error {
			calls++
			cancel() // give up while Do is about to back off
			return &HTTPError{StatusCode: 503, Msg: "draining"}
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Do = %v, want context.Canceled", err)
		}
		if calls != 1 {
			t.Errorf("op ran %d times, want 1", calls)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("cancellation took %v, want immediate", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Do still sleeping its backoff an hour-scale wait after cancel")
	}
}
