package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"dkip/internal/sim"
)

// clientHeader carries the client identity the daemon's fair-share gate
// admits under.
const clientHeader = "X-Dkip-Client"

// defaultIdentity derives the identity submissions carry when the caller
// sets none: host-pid, distinct per process, stable for its lifetime.
func defaultIdentity() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "client"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// Client is the transport to one dkipd daemon: Run and RunAll submit specs
// and block until the daemon resolves them (sharing its singleflight, memo
// cache, and store with every other client), and the metadata calls
// (Metrics, Members, Progress, Get, Manifest) read its state. Pool drives
// one Client per fleet member and is the sim.Backend remote sweeps run
// through. Metrics reports the daemon's cumulative counters — they cover
// all clients, which is the point: a second client submitting the same
// sweep shows up there as dedup, not as fresh simulation.
type Client struct {
	base        string
	hc          *http.Client
	retry       retryPolicy
	metaTimeout time.Duration
	identity    string
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// MetaTimeout bounds metadata requests — metrics, manifest streams, and
// non-waiting keyed GETs — with a per-request context (default 30s);
// d <= 0 disables the bound.
func MetaTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.metaTimeout = d }
}

// Identity sets the client identity submissions carry (the X-Dkip-Client
// header), the bucket the daemon's fair-share gate admits them under.
// Default: host-pid. Empty keeps the default — an identityless client would
// land in the daemon's shared anonymous bucket and contend with every
// headerless curl on the network.
func Identity(id string) ClientOption {
	return func(c *Client) {
		if id = strings.TrimSpace(id); id != "" {
			c.identity = id
		}
	}
}

// NewClient builds a client for the daemon at base (e.g.
// "http://localhost:8321"). Simulation submissions get no overall timeout —
// full-scale runs legitimately take minutes and the daemon bounds its own
// work — but connecting is bounded (a blackholed host must fail fast enough
// for retries and pool failover to act, not stall for the OS connect
// default), submissions are retried with backoff on transient failures,
// and every metadata endpoint gets a per-request context timeout
// (MetaTimeout) so a hung daemon can never stall the CLI forever.
func NewClient(base string, opts ...ClientOption) *Client {
	// Clone the default transport rather than replacing it, keeping proxy
	// support, the TLS handshake timeout, and connection pooling; only the
	// connect bound is ours.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.DialContext = (&net.Dialer{Timeout: 5 * time.Second}).DialContext
	c := &Client{
		base:        strings.TrimRight(base, "/"),
		hc:          &http.Client{Transport: tr},
		retry:       defaultRetry,
		metaTimeout: 30 * time.Second,
		identity:    defaultIdentity(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// metaCtx returns the bounded per-request context metadata endpoints use.
func (c *Client) metaCtx() (context.Context, context.CancelFunc) {
	if c.metaTimeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), c.metaTimeout)
}

// Run submits one spec and blocks until the daemon resolves it.
func (c *Client) Run(spec sim.RunSpec) (*sim.Result, error) {
	results, err := c.RunAll([]sim.RunSpec{spec})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunAll submits the batch in one POST /v1/runs and blocks until every run
// resolves; results[i] corresponds to specs[i]. Specs carrying opaque
// function fields are refused before anything is sent.
//
// The submission is idempotent — specs are content-keyed and the daemon
// serves duplicates from its singleflight and caches — so the whole round
// trip (submit and decode) is retried with capped backoff on transient
// failures: a daemon restart mid-sweep costs one backoff, not the sweep.
func (c *Client) RunAll(specs []sim.RunSpec) ([]*sim.Result, error) {
	wire := make([]Spec, len(specs))
	for i, s := range specs {
		ws, err := EncodeSpec(s)
		if err != nil {
			return nil, err
		}
		wire[i] = ws
	}
	body, err := json.Marshal(struct {
		Specs []Spec `json:"specs"`
	}{wire})
	if err != nil {
		return nil, fmt.Errorf("serve: encode submission: %w", err)
	}
	var rr RunsResponse
	ctx := context.Background()
	err = c.retry.Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/runs", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("serve: submit to %s: %w", c.base, err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(clientHeader, c.identity)
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("serve: submit to %s: %w", c.base, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return httpError(resp)
		}
		rr = RunsResponse{}
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			return fmt.Errorf("serve: decode response: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(rr.Results) != len(specs) {
		return nil, fmt.Errorf("serve: daemon returned %d results for %d specs", len(rr.Results), len(specs))
	}
	for i, res := range rr.Results {
		// A null entry would surface as a nil-pointer panic deep in the
		// registry (or the pool); reject it here as the protocol violation
		// it is.
		if res == nil {
			return nil, fmt.Errorf("serve: daemon returned a null result for spec %d", i)
		}
	}
	return rr.Results, nil
}

// Get fetches one result by content key. With wait set the daemon holds the
// request until the key resolves (bounded by its wait timeout); otherwise a
// miss returns an error wrapping the daemon's 404. Only the waiting form may
// block past the metadata timeout — a plain keyed read is metadata-sized.
func (c *Client) Get(key string, wait bool) (*sim.Result, error) {
	u := c.base + "/v1/runs/" + url.PathEscape(key)
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if wait {
		u += "?wait=1"
	} else {
		ctx, cancel = c.metaCtx()
	}
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: get %s: %w", key, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: get %s: %w", key, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var res sim.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("serve: decode result: %w", err)
	}
	return &res, nil
}

// Manifest streams GET /v1/results (the daemon's store manifest, or its
// in-process results when it runs storeless), optionally filtered by arch
// and bench; empty filters match everything. The whole stream is bounded by
// the metadata timeout.
func (c *Client) Manifest(arch, bench string) ([]*sim.Result, error) {
	q := url.Values{}
	if arch != "" {
		q.Set("arch", arch)
	}
	if bench != "" {
		q.Set("bench", bench)
	}
	u := c.base + "/v1/results"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	ctx, cancel := c.metaCtx()
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: manifest: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var out []*sim.Result
	dec := json.NewDecoder(resp.Body)
	for {
		var res sim.Result
		if err := dec.Decode(&res); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("serve: decode manifest: %w", err)
		}
		out = append(out, &res)
	}
}

// Metrics fetches the daemon's cumulative counters, bounded by the metadata
// timeout. A transport failure reports zero metrics: Backend's Metrics is
// an observability read, and by the time it is called the submissions it
// describes have already succeeded.
func (c *Client) Metrics() sim.Metrics {
	ctx, cancel := c.metaCtx()
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return sim.Metrics{}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return sim.Metrics{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sim.Metrics{}
	}
	var mr MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return sim.Metrics{}
	}
	return mr.Metrics
}

// Members fetches the daemon's live fleet-membership view, bounded by the
// metadata timeout. A daemon without membership configured answers 404
// (surfaced as an *HTTPError), which Pool treats as "no dynamic membership
// here" rather than a failure.
func (c *Client) Members() ([]Member, error) {
	ctx, cancel := c.metaCtx()
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/members", nil)
	if err != nil {
		return nil, fmt.Errorf("serve: members: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: members: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var mr MembersResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return nil, fmt.Errorf("serve: decode members: %w", err)
	}
	return mr.Members, nil
}

// httpError turns a non-200 daemon answer into an *HTTPError carrying the
// status and the (plain text) body the handlers write. A failure reading
// the error body itself is surfaced next to whatever arrived, never
// silently shown as an empty message.
func httpError(resp *http.Response) error {
	body, readErr := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	msg := strings.TrimSpace(string(body))
	if readErr != nil {
		if msg != "" {
			msg += " "
		}
		msg += fmt.Sprintf("(error body unreadable: %v)", readErr)
	}
	if msg == "" {
		msg = resp.Status
	}
	return &HTTPError{StatusCode: resp.StatusCode, Msg: msg}
}

// Healthy performs one GET /v1/healthz probe with a short per-attempt
// timeout — the liveness check Pool uses to admit a member back into the
// routing ring.
func Healthy(base string) error {
	// The probe gets its own deadline via context: without one, a single
	// connect to a blackholed address blocks for the OS default (minutes).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: daemon at %s answered %s", base, resp.Status)
	}
	return nil
}

// WaitHealthy polls GET /v1/healthz until the daemon answers, the budget
// elapses, or ctx is canceled — the handshake before submitting to one
// daemon (Pool.WaitHealthy is the fleet's). A canceled context (the
// operator hit ^C while waiting) returns ctx's error immediately instead of
// burning the rest of the budget.
func WaitHealthy(ctx context.Context, base string, budget time.Duration) error {
	base = strings.TrimRight(base, "/")
	deadline := time.Now().Add(budget)
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	var lastErr error
	for {
		if lastErr = Healthy(base); lastErr == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: daemon at %s not healthy after %v: %w", base, budget, lastErr)
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return fmt.Errorf("serve: wait for daemon at %s: %w", base, context.Cause(ctx))
		}
	}
}
