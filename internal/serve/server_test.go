package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dkip/internal/core"
	"dkip/internal/engine"
	"dkip/internal/ooo"
	"dkip/internal/predictor"
	"dkip/internal/sim"
)

const (
	testWarmup  = 500
	testMeasure = 2000
)

// testSpecs is a small sweep with one duplicate pair: four submissions,
// three unique machines.
func testSpecs() []sim.RunSpec {
	return []sim.RunSpec{
		sim.DKIPSpec("swim", core.Config{}, testWarmup, testMeasure),
		sim.OOOSpec("gzip", ooo.R10K64(), testWarmup, testMeasure),
		sim.DKIPSpec("swim", core.Config{}, testWarmup, testMeasure),
		sim.OOOSpec("mcf", ooo.R10K64(), testWarmup, testMeasure),
	}
}

func newTestServer(t *testing.T, store *sim.Store, opts ...ServerOption) (*httptest.Server, *sim.Runner) {
	t.Helper()
	var ropts []sim.Option
	if store != nil {
		ropts = append(ropts, sim.WithStore(store))
	}
	runner := sim.NewRunner(ropts...)
	ts := httptest.NewServer(NewServer(runner, store, opts...))
	t.Cleanup(ts.Close)
	return ts, runner
}

// A wire round-trip must preserve the content key: encode, decode, re-key.
func TestSpecWireRoundTrip(t *testing.T) {
	for _, name := range sim.PresetNames() {
		spec := sim.MustPresetSpec(name, "swim", testWarmup, testMeasure)
		ws, err := EncodeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(ws)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.RunSpec()
		if err != nil {
			t.Fatal(err)
		}
		if got.Key() != spec.Key() {
			t.Errorf("%s: key changed over the wire: %s != %s", spec.Label(), got.Key(), spec.Key())
		}
	}
}

// Specs carrying opaque function fields must be refused at encode time, even
// when a Tag makes them memoizable locally.
func TestEncodeSpecRefusesOpaque(t *testing.T) {
	spec := sim.OOOSpec("gzip", ooo.Config{
		ROBSize:      64,
		NewPredictor: func() predictor.Predictor { return predictor.NewPerceptron(64, 8) },
	}, testWarmup, testMeasure)
	spec.Tag = "custom-predictor"
	if !spec.Memoizable() {
		t.Fatal("tagged spec should be memoizable")
	}
	if _, err := EncodeSpec(spec); err == nil {
		t.Fatal("EncodeSpec accepted a spec with a non-nil function field")
	}
}

// POST /v1/runs accepts both a bare spec object and a {"specs": [...]}
// batch, answering results in submission order.
func TestSubmitSingleAndBatch(t *testing.T) {
	ts, _ := newTestServer(t, nil)

	single, err := EncodeSpec(testSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(single)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single submit: %s", resp.Status)
	}
	var rr RunsResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) != 1 || rr.Results[0].Key != testSpecs()[0].Key() {
		t.Fatalf("single submit returned %d results, key %q (want %q)",
			len(rr.Results), rr.Results[0].Key, testSpecs()[0].Key())
	}

	c := NewClient(ts.URL)
	results, err := c.RunAll(testSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range testSpecs() {
		if results[i].Key != spec.Key() {
			t.Errorf("batch result %d: key %q, want %q", i, results[i].Key, spec.Key())
		}
		if results[i].Stats == nil || results[i].Stats.Committed != testMeasure {
			t.Errorf("batch result %d: missing or truncated stats", i)
		}
	}
}

// Submissions that do not decode or validate are rejected in full, before
// anything simulates.
func TestSubmitRejectsInvalid(t *testing.T) {
	ts, runner := newTestServer(t, nil)
	for name, body := range map[string]string{
		"bad json":        "{",
		"unknown arch":    `{"arch":"vax","bench":"swim","warmup":1,"measure":1}`,
		"unknown bench":   `{"arch":"dkip","bench":"nope","warmup":1,"measure":1}`,
		"zero measure":    `{"arch":"dkip","bench":"swim","warmup":1,"measure":0}`,
		"empty":           `{}`,
		"both payloads":   `{"arch":"dkip","bench":"swim","warmup":1,"measure":1,"ooo":{},"dkip":{}}`,
		"ooo foreign":     `{"arch":"ooo","bench":"swim","warmup":1,"measure":1,"ooo":{"ROBSize":64},"inorder":{}}`,
		"inorder foreign": `{"arch":"inorder","bench":"swim","warmup":1,"measure":1,"dkip":{}}`,
		"unknown field":   `{"arch":"dkip","bench":"swim","warmup":1,"measure":1,"bogus":3}`,
		"invalid in set":  `{"specs":[{"arch":"dkip","bench":"swim","warmup":1,"measure":1},{"arch":"dkip","bench":"nope","warmup":1,"measure":1}]}`,
		"mixed forms":     `{"specs":[{"arch":"dkip","bench":"swim","warmup":1,"measure":1}],"arch":"dkip","bench":"swim","warmup":1,"measure":1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if m := runner.Metrics(); m.Simulated != 0 {
		t.Errorf("invalid submissions caused %d simulations", m.Simulated)
	}
}

// A run too long for the engine's budget arithmetic is a bad spec, not a
// crash: the shapes that once got through (a measure that wrapped the cycle
// budget, a warmup+measure sum that wrapped, a sampling plan whose
// warmup+interval wrapped, a sampling plan of 2^37 intervals) get a 400
// naming the limit, and the daemon keeps serving.
func TestSubmitRejectsOverlongRun(t *testing.T) {
	ts, runner := newTestServer(t, nil)
	for name, c := range map[string]struct{ body, limit string }{
		"budget wraps": {`{"arch":"dkip","bench":"swim","warmup":0,"measure":4611686018427387904}`, strconv.FormatUint(engine.MaxRunInstrs, 10)},
		"sum wraps":    {`{"arch":"dkip","bench":"swim","warmup":18446744073709551615,"measure":2}`, strconv.FormatUint(engine.MaxRunInstrs, 10)},
		// A sampling plan whose warmup+interval wraps, and one with an
		// interval count no run could hold, over valid run lengths.
		"interval sum wraps": {`{"arch":"dkip","bench":"gcc","warmup":1000,"measure":40000,"sample":{"intervals":4,"warmup":2,"interval":18446744073709551615}}`, "stride"},
		"2^37 intervals":     {`{"arch":"dkip","bench":"gcc","warmup":1000,"measure":549755813888,"sample":{"intervals":137438953472,"warmup":1,"interval":1}}`, "MaxIntervals"},
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if !strings.Contains(string(msg), c.limit) {
			t.Errorf("%s: error %q does not name the limit (%s)", name, msg, c.limit)
		}
	}
	servesAfterRejects(t, ts, runner)
}

// A spec that passes every field-level check but that no constructor can
// build — a cache geometry mem.NewCache rejects, a SLIQ behind in-order
// issue queues, a negative L1 latency — gets a 400 instead of panicking the
// daemon's simulation goroutine, and the daemon keeps serving.
func TestSubmitRejectsUnbuildableMachine(t *testing.T) {
	ts, runner := newTestServer(t, nil)
	for name, body := range map[string]string{
		"dkip L1Size 32769":    `{"arch":"dkip","bench":"swim","warmup":500,"measure":2000,"dkip":{"Mem":{"L1Size":32769,"L1Latency":2,"L2Size":524288,"L2Latency":11,"MemLatency":400}}}`,
		"kilo InOrder":         `{"arch":"ooo","bench":"swim","warmup":500,"measure":2000,"ooo":{"Name":"KILO-1024","ROBSize":64,"IQSize":72,"LSQSize":512,"SLIQSize":1024,"SLIQTimer":16,"CheckpointPenalty":8,"InOrder":true}}`,
		"inorder L1Latency -1": `{"arch":"inorder","bench":"swim","warmup":500,"measure":2000,"inorder":{"Name":"C920","Mem":{"L1Latency":-1}}}`,
		"r10-64 FetchWidth -1": `{"arch":"ooo","bench":"swim","warmup":500,"measure":2000,"ooo":{"Name":"R10-64","ROBSize":64,"IQSize":40,"LSQSize":512,"FetchWidth":-1}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	servesAfterRejects(t, ts, runner)
}

// A machine too large to build is a bad spec, not a crash: a D-KIP with
// 2^40-entry LLIBs, a KILO-1024 with a 2^40-entry SLIQ, an R10-64 whose
// 2^40-cycle front end would need a 246 TB fetch queue, a 1 TiB L2 and 64
// LLRF banks get a 400 naming the limit, and the daemon keeps serving.
func TestSubmitRejectsOversizedMachine(t *testing.T) {
	ts, runner := newTestServer(t, nil)
	for name, c := range map[string]struct{ body, limit string }{
		"dkip LLIBSize 2^40":        {`{"arch":"dkip","bench":"swim","warmup":500,"measure":2000,"dkip":{"LLIBSize":1099511627776}}`, "engine.MaxArena"},
		"kilo SLIQSize 2^40":        {`{"arch":"ooo","bench":"swim","warmup":500,"measure":2000,"ooo":{"Name":"KILO-1024","ROBSize":64,"IQSize":72,"LSQSize":512,"SLIQSize":1099511627776}}`, "engine.MaxArena"},
		"r10-64 FrontEndDepth 2^40": {`{"arch":"ooo","bench":"swim","warmup":500,"measure":2000,"ooo":{"Name":"R10-64","ROBSize":64,"IQSize":40,"LSQSize":512,"FrontEndDepth":1099511627776}}`, "engine.MaxArena"},
		"dkip L2Size 2^40":          {`{"arch":"dkip","bench":"swim","warmup":500,"measure":2000,"dkip":{"Mem":{"L1Size":32768,"L1Latency":2,"L2Size":1099511627776,"L2Latency":11,"MemLatency":400}}}`, "mem.MaxCacheLines"},
		"dkip LLRFBanks 64":         {`{"arch":"dkip","bench":"swim","warmup":500,"measure":2000,"dkip":{"LLRFBanks":64}}`, "core.MaxLLRFBanks"},
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if !strings.Contains(string(msg), c.limit) {
			t.Errorf("%s: error %q does not name the limit (%s)", name, msg, c.limit)
		}
	}
	servesAfterRejects(t, ts, runner)
}

// servesAfterRejects submits a valid spec to a daemon that has so far only
// rejected submissions: it must be served, and be the only simulation.
func servesAfterRejects(t *testing.T, ts *httptest.Server, runner *sim.Runner) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"arch":"dkip","bench":"swim","warmup":500,"measure":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	var out RunsResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(out.Results) != 1 || out.Results[0].Stats.Committed != 2000 {
		t.Fatalf("valid submission after the rejected ones: status %d, err %v, %+v", resp.StatusCode, err, out.Results)
	}
	if m := runner.Metrics(); m.Simulated != 1 {
		t.Errorf("%d simulations, want only the valid one", m.Simulated)
	}
}

// Two clients submitting the same sweep concurrently produce exactly one
// simulation per unique spec: the acceptance property of the daemon.
func TestCrossClientDedup(t *testing.T) {
	ts, runner := newTestServer(t, nil)

	const clients = 3
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = NewClient(ts.URL).RunAll(testSpecs())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	unique := make(map[string]bool)
	for _, s := range testSpecs() {
		unique[s.Key()] = true
	}
	m := runner.Metrics()
	if int(m.Simulated) != len(unique) {
		t.Errorf("%d clients × %d specs: simulated %d, want %d (dedup failed)",
			clients, len(testSpecs()), m.Simulated, len(unique))
	}
	if want := uint64(clients * len(testSpecs())); m.Requested != want {
		t.Errorf("requested %d, want %d", m.Requested, want)
	}
	if m.Deduped+m.CacheHits == 0 {
		t.Error("no run was served by dedup or the memo cache")
	}
}

// GET /v1/runs/{key}: 404 on a cold miss, the record after it resolves, and
// ?wait=1 blocks until a concurrent submission resolves the key.
func TestGetByKey(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	spec := testSpecs()[0]
	c := NewClient(ts.URL)

	if _, err := c.Get(spec.Key(), false); err == nil {
		t.Fatal("cold GET succeeded, want 404")
	} else if !strings.Contains(err.Error(), "404") {
		t.Fatalf("cold GET: %v, want a 404", err)
	}

	// Subscribe first, submit second: the waiter must be released by the
	// submission.
	type got struct {
		res *sim.Result
		err error
	}
	waited := make(chan got, 1)
	go func() {
		res, err := c.Get(spec.Key(), true)
		waited <- got{res, err}
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Run(spec); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-waited:
		if g.err != nil {
			t.Fatalf("waited GET: %v", g.err)
		}
		if g.res.Key != spec.Key() {
			t.Fatalf("waited GET returned key %q, want %q", g.res.Key, spec.Key())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waited GET never resolved")
	}

	// Now resolved: an ordinary GET serves it from the memo cache.
	res, err := c.Get(spec.Key(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached || res.Stats == nil {
		t.Fatalf("resolved GET: cached=%v stats=%v", res.Cached, res.Stats != nil)
	}
}

// An unresolvable ?wait=1 must come back 504 once the server's wait budget
// elapses, not hang forever.
func TestGetWaitTimesOut(t *testing.T) {
	ts, _ := newTestServer(t, nil, WaitTimeout(100*time.Millisecond))
	c := NewClient(ts.URL)
	start := time.Now()
	_, err := c.Get(strings.Repeat("ab", 16), true)
	if err == nil || !strings.Contains(err.Error(), "504") {
		t.Fatalf("got %v, want a 504", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("wait timeout did not bound the request")
	}
}

// GET /v1/runs/{key} falls through to the persistent store: a daemon
// restarted over a warm cache directory serves keys it never simulated.
func TestGetServedFromStore(t *testing.T) {
	dir := t.TempDir()
	store, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpecs()[0]
	// Populate the store out-of-band, as a previous daemon process would.
	warmRunner := sim.NewRunner(sim.WithStore(store))
	if _, err := warmRunner.Run(spec); err != nil {
		t.Fatal(err)
	}

	ts, runner := newTestServer(t, store)
	res, err := NewClient(ts.URL).Get(spec.Key(), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != spec.Key() || !res.Cached {
		t.Fatalf("store-served GET: key %q cached %v", res.Key, res.Cached)
	}
	if m := runner.Metrics(); m.Simulated != 0 {
		t.Errorf("GET-by-key simulated %d runs", m.Simulated)
	}
}

// GET /v1/results streams the manifest as NDJSON in key order and filters
// by arch/bench.
func TestResultsManifest(t *testing.T) {
	dir := t.TempDir()
	store, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, store)
	c := NewClient(ts.URL)
	if _, err := c.RunAll(testSpecs()); err != nil {
		t.Fatal(err)
	}

	all, err := c.Manifest("", "")
	if err != nil {
		t.Fatal(err)
	}
	unique := make(map[string]bool)
	for _, s := range testSpecs() {
		unique[s.Key()] = true
	}
	if len(all) != len(unique) {
		t.Fatalf("manifest has %d entries, want %d", len(all), len(unique))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Key >= all[i].Key {
			t.Fatal("manifest is not sorted by key")
		}
	}

	oooOnly, err := c.Manifest("ooo", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range oooOnly {
		if res.Arch != "ooo" {
			t.Errorf("arch filter leaked %s/%s", res.Arch, res.Bench)
		}
	}
	gzipOnly, err := c.Manifest("", "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if len(gzipOnly) != 1 || gzipOnly[0].Bench != "gzip" {
		t.Errorf("bench filter returned %d entries", len(gzipOnly))
	}
}

// GET /v1/metrics reports runner counters and store stats.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	store, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, store)
	c := NewClient(ts.URL)
	if _, err := c.RunAll(testSpecs()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Metrics.Simulated == 0 || mr.Metrics.DiskWrites == 0 {
		t.Errorf("metrics missing activity: %+v", mr.Metrics)
	}
	if mr.Store == nil || mr.Store.Entries != int(mr.Metrics.DiskWrites) {
		t.Errorf("store stats %+v do not match %d disk writes", mr.Store, mr.Metrics.DiskWrites)
	}
	if c.Metrics().Requested != mr.Metrics.Requested {
		t.Error("Client.Metrics disagrees with the raw endpoint")
	}
}

// The request gate bounds concurrent handling but queues (rather than
// rejects) excess requests: N > max simultaneous submissions all succeed.
func TestRequestGateQueues(t *testing.T) {
	ts, _ := newTestServer(t, nil, MaxRequests(1))
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := sim.OOOSpec("gzip", ooo.R10K64(), testWarmup, uint64(testMeasure+i))
			_, errs[i] = NewClient(ts.URL).Run(spec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("queued request %d: %v", i, err)
		}
	}
}

// Unknown routes and wrong methods answer 404/405, not panics.
func TestRouting(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/v1/runs", http.StatusMethodNotAllowed},
		{"DELETE", "/v1/runs/abcd", http.StatusMethodNotAllowed},
		{"GET", "/nope", http.StatusNotFound},
		{"POST", "/v1/metrics", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// A ?wait=1 request must also observe results persisted to the shared store
// by ANOTHER process mid-wait (the daemon's Subscribe only sees in-process
// runs): regression test for the store-polling arm of the wait loop.
func TestGetWaitObservesOutOfBandStoreWrite(t *testing.T) {
	dir := t.TempDir()
	store, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, store, WaitTimeout(30*time.Second))
	spec := testSpecs()[0]
	c := NewClient(ts.URL)

	type got struct {
		res *sim.Result
		err error
	}
	waited := make(chan got, 1)
	go func() {
		res, err := c.Get(spec.Key(), true)
		waited <- got{res, err}
	}()
	time.Sleep(100 * time.Millisecond)
	// Populate the store out-of-band, as a sharded sweep or second daemon
	// sharing the directory would — the server's Runner never runs it.
	if _, err := sim.NewRunner(sim.WithStore(store)).Run(spec); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-waited:
		if g.err != nil {
			t.Fatalf("waited GET: %v", g.err)
		}
		if g.res.Key != spec.Key() {
			t.Fatalf("waited GET returned key %q, want %q", g.res.Key, spec.Key())
		}
	case <-time.After(25 * time.Second):
		t.Fatal("waiter never observed the out-of-band store write")
	}
}
