package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dkip/internal/sim"
)

// Concurrent alive() callers finding the same expired cooldown must share
// one revival probe, not stack duplicates against the host — the PR-4 code
// let every caller launch its own.
func TestAliveProbeSingleflight(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	probe := func(base string) error {
		calls.Add(1)
		<-release
		return nil
	}
	pool, err := NewPool([]string{"http://a:1", "http://b:1"})
	if err != nil {
		t.Fatal(err)
	}
	pool.probe, pool.cooldown = probe, time.Minute
	m := pool.snapshot()[0]
	m.mu.Lock()
	m.downUntil = time.Now().Add(-time.Millisecond) // cooldown just expired
	m.mu.Unlock()

	const callers = 8
	views := make([][]*member, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = pool.alive()
		}(i)
	}
	// Let every caller reach the probe (leader) or the join point
	// (followers), then let the one probe finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("%d concurrent alive() calls ran %d probes, want 1 (singleflight)", callers, got)
	}
	for i, v := range views {
		if len(v) != 2 {
			t.Errorf("caller %d saw %d alive members after the shared probe succeeded, want 2", i, len(v))
		}
	}
}

// A markDown landing while a revival probe is in flight is newer evidence
// than the probe's success: the member must stay down. The PR-4 code was
// last-write-wins, so a slow probe could revive a host a submission had
// just proven dead.
func TestMarkDownBeatsStaleProbeSuccess(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	probe := func(base string) error {
		close(started)
		<-release
		return nil // success — but stale by the time it lands
	}
	pool, err := NewPool([]string{"http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	pool.probe, pool.cooldown = probe, time.Hour
	m := pool.snapshot()[0]
	m.mu.Lock()
	m.downUntil = time.Now().Add(-time.Millisecond)
	m.mu.Unlock()

	done := make(chan bool, 1)
	go func() { done <- pool.probeMember(m) }()
	<-started
	pool.markDown(m) // a submission fails while the probe runs
	close(release)
	if ok := <-done; ok {
		t.Fatal("stale probe success revived a member marked down mid-probe")
	}
	if !m.down(time.Now()) {
		t.Fatal("member is routable despite the newer markDown")
	}
}

// A member flapping dead/alive under concurrent sweeps: the probe
// singleflight, markDown generations, and re-route rounds interleave
// freely. Run under -race this is the regression test for the PR-4 probe
// races; the fallback keeps the sweeps finishing whatever the flap timing.
func TestPoolFlappingMemberConcurrentSweeps(t *testing.T) {
	a, frontA, _ := newFleetMember(t)
	b, _, _ := newFleetMember(t)
	pool := newTestPool(t, []*httptest.Server{a, b},
		func(p *Pool) { p.cooldown, p.chunk = time.Millisecond, 1 }, PoolFallback(sim.NewRunner()))

	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				frontA.dead.Store(false)
				return
			default:
			}
			frontA.dead.Store(i%2 == 0)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			specs := fleetSpecs(4)
			res, err := pool.RunAll(specs)
			if err != nil {
				t.Errorf("sweep through a flapping fleet: %v", err)
				return
			}
			for i, spec := range specs {
				if res[i].Key != spec.Key() || res[i].Stats == nil {
					t.Errorf("result %d: key %q, want %q", i, res[i].Key, spec.Key())
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flapper.Wait()
}

// Dynamic membership end to end: a pool seeded with one daemon discovers a
// second through the fleet's own /v1/members view and routes keys to it;
// records stay identical to a local runner's; a graceful leave shrinks the
// ring back while the seed always stays.
func TestPoolDynamicMembership(t *testing.T) {
	dir := t.TempDir()
	storeA, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Registry.List only reads the store, so the servers can share view
	// registries built before their URLs exist.
	viewA := NewRegistry(storeA, "view", time.Minute)
	runnerA := sim.NewRunner(sim.WithStore(storeA))
	tsA := httptest.NewServer(NewServer(runnerA, storeA, WithMembers(viewA.List)))
	t.Cleanup(tsA.Close)
	viewB := NewRegistry(storeB, "view", time.Minute)
	runnerB := sim.NewRunner(sim.WithStore(storeB))
	tsB := httptest.NewServer(NewServer(runnerB, storeB, WithMembers(viewB.List)))
	t.Cleanup(tsB.Close)

	regA := NewRegistry(storeA, tsA.URL, time.Minute)
	regB := NewRegistry(storeB, tsB.URL, time.Minute)
	if err := regA.Announce(); err != nil {
		t.Fatal(err)
	}
	if err := regB.Announce(); err != nil {
		t.Fatal(err)
	}

	// The pool only knows daemon A; interval 0 refreshes every round.
	pool := newTestPool(t, []*httptest.Server{tsA}, PoolMembership(0), func(p *Pool) { p.chunk = 1 })
	specs := fleetSpecs(16)
	res, err := pool.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		if res[i].Key != spec.Key() || res[i].Stats == nil {
			t.Errorf("result %d: key %q, want %q", i, res[i].Key, spec.Key())
		}
	}
	if len(pool.snapshot()) != 2 {
		t.Fatalf("ring holds %d members after discovery, want 2", len(pool.snapshot()))
	}
	if got := runnerB.Metrics().Requested; got == 0 {
		t.Error("discovered daemon B served no requests: keys never routed to the joiner")
	}
	if sum := runnerA.Metrics().Simulated + runnerB.Metrics().Simulated; sum != uint64(uniqueKeys(specs)) {
		t.Errorf("fleet simulated %d runs for %d unique keys", sum, uniqueKeys(specs))
	}

	// Same records a local runner would produce — the byte-identical
	// artifact property survives dynamic membership.
	local := sim.NewRunner()
	if _, err := local.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	poolRes, localRes := pool.Results(), local.Results()
	if len(poolRes) != len(localRes) {
		t.Fatalf("pool recorded %d unique runs, local %d", len(poolRes), len(localRes))
	}
	for i := range poolRes {
		ps, _ := json.Marshal(poolRes[i].Stats)
		ls, _ := json.Marshal(localRes[i].Stats)
		if poolRes[i].Key != localRes[i].Key || string(ps) != string(ls) {
			t.Errorf("record %d (%s): pool and local records diverge", i, poolRes[i].Key)
		}
	}

	// B leaves gracefully: the next refresh drops it; the seed A stays even
	// though it is now the whole view.
	if err := regB.Leave(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.RunAll(specs[:2]); err != nil {
		t.Fatal(err)
	}
	ring := pool.snapshot()
	if len(ring) != 1 || ring[0].base != normalizeBase(tsA.URL) {
		bases := make([]string, len(ring))
		for i, m := range ring {
			bases[i] = m.base
		}
		t.Fatalf("ring after leave: %v, want just the seed %s", bases, tsA.URL)
	}
}

// Full churn in one sweep: a seeded member is dead and a fresh daemon has
// joined the fleet. The pool must discover the joiner through the
// survivors' membership view, re-route the dead member's keys across the
// enlarged ring, and still record exactly what a local runner would.
func TestPoolChurnDeadMemberPlusJoiner(t *testing.T) {
	dir := t.TempDir()
	stores := make([]*sim.Store, 3)
	for i := range stores {
		s, err := sim.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	runnerA := sim.NewRunner(sim.WithStore(stores[0]))
	tsA := httptest.NewServer(NewServer(runnerA, stores[0]))
	viewB := NewRegistry(stores[1], "view", time.Minute)
	runnerB := sim.NewRunner(sim.WithStore(stores[1]))
	tsB := httptest.NewServer(NewServer(runnerB, stores[1], WithMembers(viewB.List)))
	t.Cleanup(tsB.Close)
	viewC := NewRegistry(stores[2], "view", time.Minute)
	runnerC := sim.NewRunner(sim.WithStore(stores[2]))
	tsC := httptest.NewServer(NewServer(runnerC, stores[2], WithMembers(viewC.List)))
	t.Cleanup(tsC.Close)
	if err := NewRegistry(stores[1], tsB.URL, time.Minute).Announce(); err != nil {
		t.Fatal(err)
	}
	if err := NewRegistry(stores[2], tsC.URL, time.Minute).Announce(); err != nil {
		t.Fatal(err)
	}

	// The pool is seeded with A and B only; C joins via membership, and A
	// dies before any of its chunks can land.
	pool := newTestPool(t, []*httptest.Server{tsA, tsB}, PoolMembership(0), func(p *Pool) { p.chunk = 1 })
	tsA.Close()

	specs := fleetSpecs(16)
	res, err := pool.RunAll(specs)
	if err != nil {
		t.Fatalf("sweep through a dead member plus a joiner: %v", err)
	}
	for i, spec := range specs {
		if res[i].Key != spec.Key() || res[i].Stats == nil {
			t.Errorf("result %d: key %q, want %q", i, res[i].Key, spec.Key())
		}
	}
	if got := runnerC.Metrics().Requested; got == 0 {
		t.Error("joiner served no requests: the dead member's keys never reached it")
	}
	if got := runnerA.Metrics().Requested; got != 0 {
		t.Errorf("dead member served %d requests", got)
	}
	if sum := runnerB.Metrics().Simulated + runnerC.Metrics().Simulated; sum != uint64(uniqueKeys(specs)) {
		t.Errorf("survivors simulated %d runs for %d unique keys", sum, uniqueKeys(specs))
	}

	// The artifact the churned fleet records is the one a local runner
	// produces.
	local := sim.NewRunner()
	if _, err := local.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	poolRes, localRes := pool.Results(), local.Results()
	if len(poolRes) != len(localRes) {
		t.Fatalf("pool recorded %d unique runs, local %d", len(poolRes), len(localRes))
	}
	for i := range poolRes {
		ps, _ := json.Marshal(poolRes[i].Stats)
		ls, _ := json.Marshal(localRes[i].Stats)
		if poolRes[i].Key != localRes[i].Key || string(ps) != string(ls) {
			t.Errorf("record %d (%s): churned-fleet and local records diverge", i, poolRes[i].Key)
		}
	}
}

// A fleet of pre-membership daemons (404 on /v1/members) keeps working with
// PoolMembership enabled: the ring stays pinned to the seed list.
func TestPoolMembershipBackwardCompatible(t *testing.T) {
	a, _, _ := newFleetMember(t) // plain server: no WithMembers
	b, _, _ := newFleetMember(t)
	pool := newTestPool(t, []*httptest.Server{a, b}, PoolMembership(0))
	if _, err := pool.RunAll(testSpecs()); err != nil {
		t.Fatal(err)
	}
	if len(pool.snapshot()) != 2 {
		t.Errorf("ring changed against a membership-less fleet: %d members", len(pool.snapshot()))
	}
}

// Pool.WaitHealthy honors its context: canceling while no member answers
// returns promptly instead of burning the budget.
func TestPoolWaitHealthyHonorsContext(t *testing.T) {
	dead, _, _ := newFleetMember(t)
	dead.Close()
	pool := newTestPool(t, []*httptest.Server{dead})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- pool.WaitHealthy(ctx, time.Minute) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("canceled WaitHealthy returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitHealthy ignored its canceled context")
	}
}
