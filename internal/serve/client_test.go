package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dkip/internal/sim"
)

// flakyFront wraps a real Server handler and lets tests inject failures in
// front of it: the first `fail503` POSTs answer 503, the first `drop`
// POSTs have their connection closed mid-handshake, and while `dead` is
// set every request's connection is dropped (a crashed daemon).
type flakyFront struct {
	inner   http.Handler
	fail503 atomic.Int32
	drop    atomic.Int32
	dead    atomic.Bool
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.dead.Load() {
		dropConn(w)
		return
	}
	if r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
		if f.fail503.Add(-1) >= 0 {
			http.Error(w, "serve: injected 503", http.StatusServiceUnavailable)
			return
		}
		if f.drop.Add(-1) >= 0 {
			dropConn(w)
			return
		}
	}
	f.inner.ServeHTTP(w, r)
}

// dropConn hijacks the connection and closes it without answering — the
// wire-level signature of a daemon dying mid-request.
func dropConn(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test server does not support hijacking")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	conn.Close()
}

// newFlakyServer builds a real Server fronted by a failure injector.
func newFlakyServer(t *testing.T) (*httptest.Server, *flakyFront, *sim.Runner) {
	t.Helper()
	runner := sim.NewRunner()
	front := &flakyFront{inner: NewServer(runner, nil)}
	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)
	return ts, front, runner
}

// fastRetry keeps test retries fast while preserving the real policy shape.
var fastRetry = retryPolicy{Attempts: 5, Base: time.Millisecond, Cap: 10 * time.Millisecond}

// A daemon answering 503 (draining, overloaded) for the first attempts must
// not abort the sweep: RunAll retries the idempotent submission and the
// daemon still simulates each unique spec exactly once.
func TestClientRunAllRetries503(t *testing.T) {
	ts, front, runner := newFlakyServer(t)
	front.fail503.Store(2)
	c := NewClient(ts.URL)
	c.retry = fastRetry
	results, err := c.RunAll(testSpecs())
	if err != nil {
		t.Fatalf("RunAll after injected 503s: %v", err)
	}
	for i, spec := range testSpecs() {
		if results[i].Key != spec.Key() {
			t.Errorf("result %d: key %q, want %q", i, results[i].Key, spec.Key())
		}
	}
	if m := runner.Metrics(); m.Simulated != 3 {
		t.Errorf("simulated %d unique specs, want 3", m.Simulated)
	}
}

// Connections dropped mid-request (a daemon restart) are equally
// retriable: the resubmission is served by the daemon's caches, never
// simulated twice.
func TestClientRunAllRetriesDroppedConnections(t *testing.T) {
	ts, front, runner := newFlakyServer(t)
	front.drop.Store(2)
	c := NewClient(ts.URL)
	c.retry = fastRetry
	if _, err := c.RunAll(testSpecs()); err != nil {
		t.Fatalf("RunAll after dropped connections: %v", err)
	}
	if m := runner.Metrics(); m.Simulated != 3 {
		t.Errorf("simulated %d unique specs, want 3", m.Simulated)
	}
}

// Permanent answers must fail immediately — retrying a bad spec would just
// re-reject it four times slower.
func TestClientRunAllDoesNotRetryPermanent(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		http.Error(w, "serve: spec 0: no such bench", http.StatusBadRequest)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.retry = fastRetry
	_, err := c.RunAll(testSpecs()[:1])
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("got %v, want a 400", err)
	}
	if n := posts.Load(); n != 1 {
		t.Errorf("client POSTed %d times for a permanent error, want 1", n)
	}
}

// Retries exhausting against a dead daemon must say so, carrying the
// attempt count — the troubleshooting hook the README documents.
func TestClientRunAllReportsExhaustedRetries(t *testing.T) {
	ts, front, _ := newFlakyServer(t)
	front.dead.Store(true)
	c := NewClient(ts.URL)
	c.retry = retryPolicy{Attempts: 2, Base: time.Millisecond, Cap: time.Millisecond}
	_, err := c.RunAll(testSpecs()[:1])
	if err == nil || !strings.Contains(err.Error(), "retries exhausted after 2 attempts") {
		t.Fatalf("got %v, want a retries-exhausted error", err)
	}
}

// A submission body over the 16 MiB limit must answer 413 naming the
// limit, not a generic 400 "bad request body".
func TestSubmitOversizedBodyAnswers413(t *testing.T) {
	ts, runner := newTestServer(t, nil)
	// A valid JSON prefix with one giant string field keeps the decoder
	// reading until it crosses the byte limit.
	body := `{"arch":"dkip","bench":"swim","warmup":1,"measure":1,"tag":"` +
		strings.Repeat("a", maxSubmitBytes+1) + `"}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(msg), "16777216-byte submission limit") {
		t.Errorf("413 body %q does not name the limit", msg)
	}
	if m := runner.Metrics(); m.Requested != 0 {
		t.Errorf("oversized body reached the runner: %+v", m)
	}
}

// errAfter yields some bytes, then fails — an error body truncated by a
// dying connection.
type errAfter struct {
	data []byte
	err  error
}

func (e *errAfter) Read(p []byte) (int, error) {
	if len(e.data) == 0 {
		return 0, e.err
	}
	n := copy(p, e.data)
	e.data = e.data[n:]
	return n, nil
}

// httpError must surface a failed error-body read instead of silently
// rendering an empty message.
func TestHTTPErrorReportsUnreadableBody(t *testing.T) {
	resp := &http.Response{
		StatusCode: http.StatusInternalServerError,
		Status:     "500 Internal Server Error",
		Body:       io.NopCloser(&errAfter{err: errors.New("connection reset")}),
	}
	err := httpError(resp)
	if !strings.Contains(err.Error(), "error body unreadable") || !strings.Contains(err.Error(), "connection reset") {
		t.Errorf("httpError on an unreadable body: %v", err)
	}

	// A partial body is kept alongside the read failure.
	resp.Body = io.NopCloser(&errAfter{data: []byte("serve: half a mess"), err: errors.New("reset")})
	err = httpError(resp)
	if !strings.Contains(err.Error(), "half a mess") || !strings.Contains(err.Error(), "error body unreadable") {
		t.Errorf("httpError dropped the partial body or the read error: %v", err)
	}

	// The ordinary path is unchanged: body rendered as-is.
	resp.Body = io.NopCloser(strings.NewReader("serve: no result for key \"x\"\n"))
	resp.StatusCode = http.StatusNotFound
	err = httpError(resp)
	if got := err.Error(); got != `serve: daemon answered 404: serve: no result for key "x"` {
		t.Errorf("plain httpError rendering changed: %q", got)
	}
}

// Metadata endpoints must be bounded by per-request contexts: a hung
// daemon cannot stall Metrics or Manifest (and thus the CLI) forever.
func TestMetadataRequestsTimeOut(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hang until the client gives up
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, MetaTimeout(100*time.Millisecond))

	start := time.Now()
	if m := c.Metrics(); m != (sim.Metrics{}) {
		t.Errorf("hung metrics returned %+v, want zeros", m)
	}
	if _, err := c.Manifest("", ""); err == nil {
		t.Error("hung manifest returned no error")
	}
	if _, err := c.Get("ab12", false); err == nil {
		t.Error("hung non-waiting Get returned no error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("metadata calls took %v against a hung daemon; the timeout is not applied", elapsed)
	}
}

// The healthz probe answers without touching runner or store, and
// WaitHealthy uses it: up daemon passes, dead daemon fails within budget.
func TestHealthzProbe(t *testing.T) {
	ts, runner := newTestServer(t, nil)
	if err := Healthy(ts.URL); err != nil {
		t.Fatalf("Healthy against a live daemon: %v", err)
	}
	if err := WaitHealthy(context.Background(), ts.URL, time.Second); err != nil {
		t.Fatalf("WaitHealthy against a live daemon: %v", err)
	}
	if m := runner.Metrics(); m.Requested != 0 {
		t.Errorf("health probes touched the runner: %+v", m)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	start := time.Now()
	if err := WaitHealthy(context.Background(), url, 300*time.Millisecond); err == nil {
		t.Error("WaitHealthy against a closed port succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("WaitHealthy did not respect its budget")
	}
}

// The healthz probe is deadline-bounded end to end — the regression
// dkipvet's ctxhygiene analyzer pinned: the probe used to ride a bare
// client.Get whose only bound was a transport-level timeout, invisible to
// the request context. A daemon that accepts the connection and then
// wedges must fail the probe within the probe's own deadline.
func TestHealthyBoundedAgainstWedgedDaemon(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // never answer; exit when the probe gives up
	}))
	defer ts.Close()
	start := time.Now()
	if err := Healthy(ts.URL); err == nil {
		t.Error("Healthy against a wedged daemon returned nil")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("probe took %v against a wedged daemon; the deadline is not applied", elapsed)
	}
}
