package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dkip/internal/core"
	"dkip/internal/ooo"
	"dkip/internal/predictor"
	"dkip/internal/sim"
)

// newFleetMember builds one daemon of a test fleet: a real Server over its
// own Runner, fronted by a failure injector.
func newFleetMember(t *testing.T) (*httptest.Server, *flakyFront, *sim.Runner) {
	t.Helper()
	return newFlakyServer(t)
}

// newTestPool builds a Pool over the given servers with fast retries and a
// cooldown long enough that a downed member stays down for the whole test.
func newTestPool(t *testing.T, servers []*httptest.Server, opts ...PoolOption) *Pool {
	t.Helper()
	bases := make([]string, len(servers))
	for i, ts := range servers {
		bases[i] = ts.URL
	}
	pool, err := NewPool(bases, append([]PoolOption{func(p *Pool) {
		p.retry = fastRetry
		p.cooldown = time.Minute
	}}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// uniqueKeys counts the distinct content keys of a spec set.
func uniqueKeys(specs []sim.RunSpec) int {
	seen := make(map[string]bool)
	for _, s := range specs {
		seen[s.Key()] = true
	}
	return len(seen)
}

// fleetSpecs builds n distinct specs (distinct measure scales) so routing
// has something to spread.
func fleetSpecs(n int) []sim.RunSpec {
	specs := make([]sim.RunSpec, n)
	for i := range specs {
		specs[i] = sim.DKIPSpec("swim", core.Config{}, testWarmup, uint64(testMeasure+100*(i+1)))
	}
	return specs
}

// A healthy two-daemon fleet must resolve a batch in order, simulate every
// unique key exactly once fleet-wide, and serve a resubmission entirely
// from the daemons' caches.
func TestPoolFleetDedups(t *testing.T) {
	a, _, ra := newFleetMember(t)
	b, _, rb := newFleetMember(t)
	pool := newTestPool(t, []*httptest.Server{a, b}, func(p *Pool) { p.chunk = 2 })

	specs := testSpecs()
	results, err := pool.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		if results[i].Key != spec.Key() {
			t.Errorf("result %d: key %q, want %q", i, results[i].Key, spec.Key())
		}
		if results[i].Stats == nil || results[i].Stats.Committed != testMeasure {
			t.Errorf("result %d: missing or truncated stats", i)
		}
	}
	if _, err := pool.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	want := uint64(uniqueKeys(specs))
	if sum := ra.Metrics().Simulated + rb.Metrics().Simulated; sum != want {
		t.Errorf("fleet simulated %d runs for %d unique keys (duplicates or misses)", sum, want)
	}
	// Pool.Metrics folds the fleet into one view.
	if m := pool.Metrics(); m.Simulated != want {
		t.Errorf("pool metrics report %d simulated, want %d", m.Simulated, want)
	}
}

// Every member a round routes keys to gets submissions of its own: with
// one chunk per key and at least 2 × members chunks routed to each member,
// each daemon holds its submissions until every other daemon has received
// one. A dispatcher that lets one member's chunks fill a shared window never
// gets another member a submission, and RunAll stalls.
func TestPoolKeepsEveryMemberBusy(t *testing.T) {
	const members = 2
	stop := make(chan struct{})
	arrived := make([]chan struct{}, members)
	servers := make([]*httptest.Server, members)
	for i := range servers {
		arrived[i] = make(chan struct{})
		var first sync.Once
		inner := NewServer(sim.NewRunner(), nil)
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
				first.Do(func() { close(arrived[i]) })
				for _, ch := range arrived {
					select {
					case <-ch:
					case <-stop:
						http.Error(w, "serve: test over", http.StatusBadRequest)
						return
					}
				}
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(servers[i].Close)
	}
	// Cleanups run last-registered first: held submissions are released
	// before the servers close.
	t.Cleanup(func() { close(stop) })
	pool := newTestPool(t, servers, func(p *Pool) { p.chunk = 1 })

	ring := pool.snapshot()
	owned := make(map[*member]int)
	var specs []sim.RunSpec
	for i := 0; ; i++ {
		short := false
		for _, m := range ring {
			short = short || owned[m] < 2*members
		}
		if !short {
			break
		}
		spec := sim.DKIPSpec("swim", core.Config{}, testWarmup, uint64(testMeasure+100*(i+1)))
		owned[route(spec.Key(), ring)]++
		specs = append(specs, spec)
	}

	done := make(chan error, 1)
	go func() {
		_, err := pool.RunAll(specs)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunAll stalled: one member's chunks held every submission slot")
	}
}

// Rendezvous routing: deterministic, reasonably spread, and minimally
// disruptive — when a member leaves, only its own keys move.
func TestRouteStability(t *testing.T) {
	members := []*member{{base: "http://a:8321"}, {base: "http://b:8321"}, {base: "http://c:8321"}}
	owned := make(map[string]*member)
	perOwner := make(map[*member]int)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%03d", i)
		m := route(key, members)
		if again := route(key, members); again != m {
			t.Fatalf("route(%q) is not deterministic", key)
		}
		owned[key] = m
		perOwner[m]++
	}
	for _, m := range members {
		if perOwner[m] == 0 {
			t.Errorf("member %s owns no keys out of 300: degenerate spread %v", m.base, perOwner)
		}
	}
	// Drop member c: keys owned by a and b must not move.
	survivors := members[:2]
	for key, m := range owned {
		moved := route(key, survivors)
		if m != members[2] && moved != m {
			t.Errorf("key %q moved from %s to %s though its owner survived", key, m.base, moved.base)
		}
		if m == members[2] && moved == nil {
			t.Errorf("key %q was orphaned", key)
		}
	}
}

// A backend answering 503 / dropping connections for the first attempts
// must cost backoffs, not the sweep — and once it recovers, nothing is
// simulated twice.
func TestPoolRetriesTransientFailures(t *testing.T) {
	a, front, ra := newFleetMember(t)
	front.fail503.Store(2)
	front.drop.Store(1)
	pool := newTestPool(t, []*httptest.Server{a})

	specs := testSpecs()
	results, err := pool.RunAll(specs)
	if err != nil {
		t.Fatalf("RunAll through a flaky backend: %v", err)
	}
	for i, spec := range specs {
		if results[i].Key != spec.Key() {
			t.Errorf("result %d: key %q, want %q", i, results[i].Key, spec.Key())
		}
	}
	if got, want := ra.Metrics().Simulated, uint64(uniqueKeys(specs)); got != want {
		t.Errorf("flaky backend simulated %d, want %d — a retry re-simulated", got, want)
	}
}

// Killing one of two daemons re-routes its keys to the survivor and the
// sweep completes with every unique key simulated exactly once fleet-wide.
func TestPoolReroutesWhenBackendDies(t *testing.T) {
	a, frontA, ra := newFleetMember(t)
	b, _, rb := newFleetMember(t)
	pool := newTestPool(t, []*httptest.Server{a, b}, func(p *Pool) { p.chunk = 2 })

	first := testSpecs()
	if _, err := pool.RunAll(first); err != nil {
		t.Fatal(err)
	}
	// Daemon a dies mid-sweep: every subsequent connection to it drops.
	frontA.dead.Store(true)

	second := fleetSpecs(6)
	results, err := pool.RunAll(second)
	if err != nil {
		t.Fatalf("RunAll with one daemon dead: %v", err)
	}
	for i, spec := range second {
		if results[i].Key != spec.Key() || results[i].Stats == nil {
			t.Errorf("re-routed result %d: key %q, want %q", i, results[i].Key, spec.Key())
		}
	}
	want := uint64(uniqueKeys(first) + uniqueKeys(second))
	if sum := ra.Metrics().Simulated + rb.Metrics().Simulated; sum != want {
		t.Errorf("fleet simulated %d runs for %d unique keys after failover", sum, want)
	}
	// The pool keeps working against the survivor, still without
	// re-simulating anything.
	if _, err := pool.RunAll(second); err != nil {
		t.Fatal(err)
	}
	if sum := ra.Metrics().Simulated + rb.Metrics().Simulated; sum != want {
		t.Errorf("resubmission after failover re-simulated: %d runs for %d keys", sum, want)
	}
	// Results stays a faithful Backend: one record per unique key, sorted.
	res := pool.Results()
	if len(res) != int(want) {
		t.Errorf("pool recorded %d unique runs, want %d", len(res), want)
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Key >= res[i].Key {
			t.Fatal("pool results are not key-sorted")
		}
	}
}

// With every backend down the pool finishes the sweep on the local
// fallback Runner instead of failing it.
func TestPoolFallsBackToLocalRunner(t *testing.T) {
	a, _, _ := newFleetMember(t)
	a.Close() // dead before the first submission
	local := sim.NewRunner()
	pool := newTestPool(t, []*httptest.Server{a}, PoolFallback(local))

	specs := testSpecs()
	results, err := pool.RunAll(specs)
	if err != nil {
		t.Fatalf("RunAll with all backends down and a fallback: %v", err)
	}
	for i, spec := range specs {
		if results[i].Key != spec.Key() || results[i].Stats == nil {
			t.Errorf("fallback result %d: key %q, want %q", i, results[i].Key, spec.Key())
		}
	}
	want := uint64(uniqueKeys(specs))
	if got := local.Metrics().Simulated; got != want {
		t.Errorf("fallback runner simulated %d, want %d", got, want)
	}
	if got := len(pool.Results()); got != int(want) {
		t.Errorf("pool recorded %d unique runs, want %d", got, want)
	}
	// The fleet-wide metrics view includes the local counters (the dead
	// member contributes zeros).
	if m := pool.Metrics(); m.Simulated != want {
		t.Errorf("pool metrics report %d simulated, want %d", m.Simulated, want)
	}
}

// Without a fallback, an all-dead fleet is an error naming the fleet size —
// never a hang or a silent partial result.
func TestPoolAllDownWithoutFallbackFails(t *testing.T) {
	a, _, _ := newFleetMember(t)
	b, _, _ := newFleetMember(t)
	a.Close()
	b.Close()
	pool := newTestPool(t, []*httptest.Server{a, b})
	_, err := pool.RunAll(testSpecs())
	if err == nil || !strings.Contains(err.Error(), "2 pool backends unhealthy") {
		t.Fatalf("got %v, want an all-backends-unhealthy error", err)
	}
}

// A member marked down is probed back in after its cooldown: the fleet
// heals without a new Pool.
func TestPoolReadmitsRecoveredBackend(t *testing.T) {
	a, frontA, ra := newFleetMember(t)
	b, _, rb := newFleetMember(t)
	pool := newTestPool(t, []*httptest.Server{a, b}, func(p *Pool) { p.cooldown = 10 * time.Millisecond })

	frontA.dead.Store(true)
	if _, err := pool.RunAll(testSpecs()); err != nil {
		t.Fatal(err)
	}
	if got := ra.Metrics().Requested; got != 0 {
		t.Fatalf("dead member still served %d requests", got)
	}
	// Recover a, wait out the cooldown, and submit fresh keys: a must see
	// traffic again (some of the fresh keys route to it).
	frontA.dead.Store(false)
	time.Sleep(20 * time.Millisecond)
	specs := fleetSpecs(12)
	if _, err := pool.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	if got := ra.Metrics().Requested; got == 0 {
		t.Error("recovered member was never readmitted to the ring")
	}
	if sum := ra.Metrics().Simulated + rb.Metrics().Simulated; sum != uint64(uniqueKeys(testSpecs())+uniqueKeys(specs)) {
		t.Errorf("fleet simulated %d runs across recovery", sum)
	}
}

// Specs carrying opaque function fields are refused before anything is
// sent, matching Client.RunAll.
func TestPoolRefusesOpaqueSpecs(t *testing.T) {
	a, _, ra := newFleetMember(t)
	pool := newTestPool(t, []*httptest.Server{a})
	spec := sim.OOOSpec("gzip", ooo.Config{
		ROBSize:      64,
		NewPredictor: func() predictor.Predictor { return predictor.NewPerceptron(64, 8) },
	}, testWarmup, testMeasure)
	spec.Tag = "custom-predictor"
	if _, err := pool.RunAll([]sim.RunSpec{spec}); err == nil {
		t.Fatal("pool accepted a spec with a non-nil function field")
	}
	if m := ra.Metrics(); m.Requested != 0 {
		t.Errorf("the refused spec reached a daemon: %+v", m)
	}
}

// The Pool is a faithful sim.Backend: records accumulated through a fleet
// match a local Runner's key-for-key with identical stats — the property
// behind byte-identical -json artifacts.
func TestPoolMatchesLocalBackend(t *testing.T) {
	a, _, _ := newFleetMember(t)
	b, _, _ := newFleetMember(t)
	pool := newTestPool(t, []*httptest.Server{a, b}, func(p *Pool) { p.chunk = 1 })
	local := sim.NewRunner()

	specs := testSpecs()
	if _, err := pool.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	// A repeated submission must not duplicate pool-side records.
	if _, err := pool.RunAll(specs[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := local.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	poolRes, localRes := pool.Results(), local.Results()
	if len(poolRes) != len(localRes) {
		t.Fatalf("pool recorded %d unique runs, local %d", len(poolRes), len(localRes))
	}
	for i := range poolRes {
		if poolRes[i].Key != localRes[i].Key {
			t.Errorf("record %d: pool key %s, local key %s", i, poolRes[i].Key, localRes[i].Key)
		}
		ps, _ := json.Marshal(poolRes[i].Stats)
		ls, _ := json.Marshal(localRes[i].Stats)
		if string(ps) != string(ls) {
			t.Errorf("record %d (%s): pool and local stats diverge", i, poolRes[i].Key)
		}
	}
}

// Pool.WaitHealthy needs only one live member, and reports failure when
// there is none.
func TestPoolWaitHealthy(t *testing.T) {
	a, _, _ := newFleetMember(t)
	dead, _, _ := newFleetMember(t)
	dead.Close()
	pool := newTestPool(t, []*httptest.Server{dead, a})
	if err := pool.WaitHealthy(context.Background(), 2*time.Second); err != nil {
		t.Fatalf("WaitHealthy with one live member: %v", err)
	}
	allDead := newTestPool(t, []*httptest.Server{dead})
	if err := allDead.WaitHealthy(context.Background(), 200*time.Millisecond); err == nil {
		t.Fatal("WaitHealthy with no live members succeeded")
	}
}
