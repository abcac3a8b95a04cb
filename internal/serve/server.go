package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dkip/internal/sim"
)

// Server serves one process-wide sim.Runner (and its optional sim.Store)
// over HTTP. The work-bearing endpoints (submissions, manifest streams)
// funnel through a bounded concurrency gate that is independent of the
// Runner's simulation pool: -parallel bounds how many simulations advance at
// once, the gate bounds how many requests are being decoded/streamed, so a
// flood of clients queues at the door instead of exhausting daemon memory.
// Gate slots are divided fairly between client identities (the
// X-Dkip-Client header): one client's flood queues behind its share instead
// of monopolizing the daemon against everyone else.
type Server struct {
	runner *sim.Runner
	store  *sim.Store

	gate        *fairShare
	waitTimeout time.Duration
	// streamWriteTimeout bounds each write of a streaming response —
	// manifest NDJSON and progress events — so a client that stops reading
	// releases its slot instead of holding it for the connection's
	// lifetime.
	streamWriteTimeout time.Duration
	members            func() []Member
	mux                *http.ServeMux

	// statsMu guards a short-TTL cache of Store.Stats: /v1/metrics is
	// ungated and polled as a health check, and a full directory walk per
	// poll would scale with store size — eventually failing WaitHealthy's
	// per-attempt timeout against a perfectly healthy daemon.
	statsMu sync.Mutex
	stats   sim.StoreStats
	statsAt time.Time
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// MaxRequests bounds concurrently-handled HTTP requests (default 64);
// n <= 0 keeps the default. Excess requests wait for a slot (bounded by the
// client's context) rather than failing fast, and slots are shared fairly
// across client identities.
func MaxRequests(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.gate = newFairShare(n)
		}
	}
}

// WithMembers attaches the fleet-membership source behind GET /v1/members
// (typically Registry.List). Without one the endpoint answers 404, which a
// Pool treats as "membership not configured here" and leaves its ring
// alone.
func WithMembers(src func() []Member) ServerOption {
	return func(s *Server) { s.members = src }
}

// WaitTimeout bounds how long GET /v1/runs/{key}?wait=1 blocks for an
// unresolved key before answering 504 (default one minute).
func WaitTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.waitTimeout = d
		}
	}
}

// NewServer wraps a Runner and an optional Store (nil disables the manifest
// fallback to disk; /v1/results then reports what the Runner resolved this
// process). The Store should be the same one the Runner was built with
// (sim.WithStore) so GET-by-key and the manifest see every persisted result.
func NewServer(r *sim.Runner, store *sim.Store, opts ...ServerOption) *Server {
	s := &Server{
		runner:             r,
		store:              store,
		gate:               newFairShare(64),
		waitTimeout:        time.Minute,
		streamWriteTimeout: 30 * time.Second,
	}
	for _, o := range opts {
		o(s)
	}
	s.mux = http.NewServeMux()
	// Only the work-bearing endpoints pass the gate. GET-by-key (even a
	// blocked ?wait=1 — one goroutine and a channel), progress streams
	// (held open for a sweep's duration, bounded by their own budget and
	// per-write deadlines), membership reads, and the metrics health check
	// are deliberately ungated: a full house of waiters must never starve
	// the submission that would resolve them, nor make the daemon look
	// dead to WaitHealthy.
	s.mux.HandleFunc("POST /v1/runs", s.gated(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/runs/{key}", s.handleGet)
	s.mux.HandleFunc("GET /v1/results", s.gated(s.handleResults))
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/members", s.handleMembers)
	s.mux.HandleFunc("GET /v1/progress", s.handleProgress)
	s.mux.HandleFunc("GET /metrics", s.handleProm)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return s
}

// clientID extracts the fair-share identity a request admits under.
// Anonymous requests (no header) share one bucket — a fleet of headerless
// curls competes as one client, which is the conservative default.
func clientID(r *http.Request) string {
	id := strings.TrimSpace(r.Header.Get(clientHeader))
	if id == "" {
		return "anonymous"
	}
	if len(id) > 128 {
		id = id[:128]
	}
	return id
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// gated wraps a handler in the fair-share request gate: acquire a slot
// under the request's client identity (or give up when the client does),
// then dispatch.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		client := clientID(r)
		if err := s.gate.acquire(r.Context(), client); err != nil {
			http.Error(w, "serve: overloaded, request context expired while queued", http.StatusServiceUnavailable)
			return
		}
		defer s.gate.release(client)
		h(w, r)
	}
}

// runsRequest is the POST /v1/runs body: either a batch under "specs" or a
// single bare Spec object (its fields are promoted from the embedded Spec).
type runsRequest struct {
	Specs []Spec `json:"specs"`
	Spec
}

// RunsResponse answers POST /v1/runs: one Result per submitted spec, in
// submission order, plus the daemon's cumulative metrics so clients can
// observe cross-client dedup.
type RunsResponse struct {
	Results []*sim.Result `json:"results"`
	Metrics sim.Metrics   `json:"metrics"`
}

// maxSubmitBytes bounds a POST /v1/runs body; bigger sweeps should be
// chunked into several submissions (serve.Pool does this automatically).
const maxSubmitBytes = 16 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req runsRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			// An overflow is not a malformed body: answer 413 with the
			// limit so the client knows to split the sweep, not fix JSON.
			http.Error(w, fmt.Sprintf("serve: request body exceeds the %d-byte submission limit; split the sweep into smaller batches", mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("serve: bad request body: %v", err), http.StatusBadRequest)
		return
	}
	wire := req.Specs
	if len(wire) == 0 {
		if req.Arch == "" {
			http.Error(w, "serve: empty submission: want a spec object or {\"specs\": [...]}", http.StatusBadRequest)
			return
		}
		wire = []Spec{req.Spec}
	} else if req.Arch != "" {
		// Mixing the two forms would silently drop the inline spec.
		http.Error(w, "serve: ambiguous submission: a bare spec and a \"specs\" batch in one body", http.StatusBadRequest)
		return
	}
	// Validate the whole batch before simulating any of it: a submission
	// either runs in full or is rejected in full.
	specs := make([]sim.RunSpec, len(wire))
	for i, ws := range wire {
		spec, err := ws.RunSpec()
		if err == nil {
			err = spec.Validate()
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("serve: spec %d: %v", i, err), http.StatusBadRequest)
			return
		}
		specs[i] = spec
	}
	results, err := s.runner.RunAll(specs)
	if err != nil {
		http.Error(w, fmt.Sprintf("serve: %v", err), http.StatusInternalServerError)
		return
	}
	writeJSON(w, RunsResponse{Results: results, Metrics: s.runner.Metrics()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if res, ok := s.runner.Lookup(key); ok {
		writeJSON(w, res)
		return
	}
	if s.store != nil {
		if res, ok := s.store.Get(key); ok {
			writeJSON(w, res.WithCached(true))
			return
		}
	}
	if v, _ := strconv.ParseBool(r.URL.Query().Get("wait")); !v {
		http.Error(w, fmt.Sprintf("serve: no result for key %q", key), http.StatusNotFound)
		return
	}
	ch, cancel := s.runner.Subscribe(key)
	defer cancel()
	// The subscription only observes this process's Runs; the store may be
	// populated at any moment by another process sharing the directory (a
	// sharded sweep, a second daemon), so poll it alongside the wait.
	var storeTick <-chan time.Time
	if s.store != nil {
		ticker := time.NewTicker(500 * time.Millisecond)
		defer ticker.Stop()
		storeTick = ticker.C
		if res, ok := s.store.Get(key); ok {
			writeJSON(w, res.WithCached(true))
			return
		}
	}
	timer := time.NewTimer(s.waitTimeout)
	defer timer.Stop()
	for {
		select {
		case res := <-ch:
			writeJSON(w, res)
			return
		case <-storeTick:
			if res, ok := s.store.Get(key); ok {
				writeJSON(w, res.WithCached(true))
				return
			}
		case <-timer.C:
			http.Error(w, fmt.Sprintf("serve: key %q did not resolve within %v", key, s.waitTimeout), http.StatusGatewayTimeout)
			return
		case <-r.Context().Done():
			// Client went away; nothing to write.
			return
		}
	}
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	arch, bench := r.URL.Query().Get("arch"), r.URL.Query().Get("bench")
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	wrote := false
	emit := func(res *sim.Result) error {
		if (arch != "" && res.Arch != arch) || (bench != "" && res.Bench != bench) {
			return nil
		}
		// The stream runs inside a gate slot; each write carries its own
		// deadline so a client that connects and stops reading (full TCP
		// window, wedged pipe) frees the slot once the kernel buffers
		// fill, instead of occupying the gate for the connection's
		// lifetime on a large store.
		if err := rc.SetWriteDeadline(time.Now().Add(s.streamWriteTimeout)); err == nil {
			defer rc.SetWriteDeadline(time.Time{})
		}
		if err := enc.Encode(res); err != nil {
			return err
		}
		wrote = true
		return nil
	}
	if s.store != nil {
		// Stream straight off the store walk — one decoded entry in
		// memory at a time, whatever the manifest size.
		if err := s.store.Walk(emit); err != nil && !wrote {
			// A filesystem error before the first record still has a
			// status line to carry it. Later errors (including a client
			// that disconnected mid-stream) cannot change the committed
			// 200; the stream just ends early.
			http.Error(w, fmt.Sprintf("serve: %v", err), http.StatusInternalServerError)
		}
		return
	}
	for _, res := range s.runner.Results() {
		if emit(res) != nil {
			return
		}
	}
}

// MetricsResponse answers GET /v1/metrics.
type MetricsResponse struct {
	Metrics sim.Metrics     `json:"metrics"`
	Store   *sim.StoreStats `json:"store,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{Metrics: s.runner.Metrics()}
	if s.store != nil {
		if st, ok := s.storeStats(); ok {
			resp.Store = &st
		}
	}
	writeJSON(w, resp)
}

// storeStats serves Store.Stats through a 5-second cache; staleness is
// bounded and cross-process writers are still observed, which an
// incrementally maintained counter could not promise.
func (s *Server) storeStats() (sim.StoreStats, bool) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if !s.statsAt.IsZero() && time.Since(s.statsAt) < 5*time.Second {
		return s.stats, true
	}
	st, err := s.store.Stats()
	if err != nil {
		return sim.StoreStats{}, false
	}
	s.stats, s.statsAt = st, time.Now()
	return st, true
}

// MembersResponse answers GET /v1/members.
type MembersResponse struct {
	Members []Member `json:"members"`
}

// handleMembers serves the fleet membership view. A daemon running without
// -advertise (no registry attached) answers 404 — the signal a Pool reads
// as "this fleet does not do dynamic membership" rather than an error.
func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	if s.members == nil {
		http.Error(w, "serve: membership not configured on this daemon (start it with -advertise)", http.StatusNotFound)
		return
	}
	members := s.members()
	if members == nil {
		members = []Member{}
	}
	writeJSON(w, MembersResponse{Members: members})
}

// handleProm serves the Prometheus text exposition: runner counters, the
// admission gate's depth and per-client breakdown, store size, and fleet
// membership. Ungated and allocation-light, so a scrape never competes
// with submissions for a slot.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := &promWriter{w: w}
	for _, c := range s.runner.Metrics().Counters() {
		p.counter("dkip_runner_"+c.Name+"_total",
			"Cumulative runner "+c.Name+" count since daemon start.", float64(c.Value))
	}
	gs := s.gate.snapshot()
	p.gauge("dkip_gate_capacity", "Admission gate slot capacity.", float64(gs.Capacity))
	p.gauge("dkip_gate_inflight", "Requests currently holding a gate slot.", float64(gs.Inflight))
	p.gauge("dkip_gate_waiting", "Requests queued for a gate slot.", float64(gs.Waiting))
	if len(gs.PerClient) > 0 {
		clients := sortedLabelKeys(gs.PerClient)
		p.family("dkip_client_inflight", "Gate slots held, by client identity.", "gauge")
		for _, c := range clients {
			p.sample("dkip_client_inflight", [][2]string{{"client", c}}, float64(gs.PerClient[c][0]))
		}
		p.family("dkip_client_waiting", "Requests queued at the gate, by client identity.", "gauge")
		for _, c := range clients {
			p.sample("dkip_client_waiting", [][2]string{{"client", c}}, float64(gs.PerClient[c][1]))
		}
	}
	if s.store != nil {
		if st, ok := s.storeStats(); ok {
			p.gauge("dkip_store_entries", "Results persisted in the shared store.", float64(st.Entries))
			p.gauge("dkip_store_checkpoints", "Checkpoint blobs persisted in the shared store.", float64(st.Checkpoints))
		}
	}
	if s.members != nil {
		p.gauge("dkip_fleet_members", "Live fleet members holding a current lease.", float64(len(s.members())))
	}
}

// handleHealthz answers the fleet liveness probe. It deliberately touches
// nothing — no runner lock, no store walk — so a daemon saturated with
// simulations still answers instantly and a Pool never mistakes "busy" for
// "down".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
