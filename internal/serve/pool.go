package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dkip/internal/sim"
)

// Pool is a sim.Backend that federates a fleet of dkipd daemons. Every spec
// is routed to one daemon by rendezvous hashing on its content key, so the
// same spec always lands on the same daemon's singleflight and memo cache no
// matter which client submits it; batches are chunked into bounded
// sub-batches and submitted concurrently under an in-flight window of two
// chunks per seed member. Each member Client retries transient failures
// with backoff; when a member's retries exhaust, the Pool marks it down for
// a cooldown and re-routes its keys across the survivors (rendezvous
// hashing guarantees the survivors' own assignments do not move). When
// every backend is down, the Pool fails over to an optional local
// sim.Runner so a sweep always finishes. One caveat: a member that accepts
// submissions but never answers them is, by default, indistinguishable from
// one running a long simulation — bound submissions with PoolSubmitTimeout
// when sweep latency is known so such a member re-routes too, or race its
// chunks against idle peers with PoolSteal.
//
// With PoolMembership the ring is dynamic: between re-route rounds the Pool
// refreshes its member set from the fleet's own GET /v1/members view, so
// daemons joining or leaving mid-sweep are picked up without a client
// restart — and rendezvous routing keeps surviving members' keys pinned
// while they do.
//
// Determinism survives federation: Results reports the unique records seen
// fleet-wide, key-sorted like every other Backend, so a -json artifact
// produced through a Pool compares byte-for-byte (outside the metrics
// section) with a local run's.
type Pool struct {
	chunk         int
	window        chan struct{}
	retry         RetryPolicy
	cooldown      time.Duration
	submitTimeout time.Duration
	probe         func(base string) error
	fallback      *sim.Runner
	identity      string
	steal         time.Duration

	membership      bool
	refreshInterval time.Duration

	// membersMu guards the ring. The slice is replaced wholesale on
	// reconcile (never mutated in place), so a snapshot stays valid across a
	// refresh; individual member health lives in each member's own lock.
	membersMu   sync.RWMutex
	members     []*member
	lastRefresh time.Time

	// seeds are the URLs the Pool was constructed with. Reconcile never
	// drops a seed — health probing sidelines a dead one on its own — so an
	// operator's explicit fleet list survives a membership view that is
	// temporarily empty or partial.
	seeds map[string]bool

	mu      sync.Mutex
	results map[string]*sim.Result
}

var _ sim.Backend = (*Pool)(nil)

// member is one daemon of the fleet plus its health state.
type member struct {
	base   string
	client *Client

	mu        sync.Mutex
	downUntil time.Time     // zero when the member is routable
	gen       uint64        // bumped by every markDown; stale probe outcomes must not override newer evidence
	probing   chan struct{} // non-nil while one revival probe runs; followers wait on it

	inflight  atomic.Int32 // chunk submissions currently in flight to this member
	latencyNs atomic.Int64 // last successful chunk's latency; 0 until observed
}

// down reports whether the member is currently out of the routing ring —
// the single definition of "down" the dispatch path, revival probing, and
// Metrics all consult.
func (m *member) down(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.downUntil.IsZero() && now.Before(m.downUntil)
}

// PoolOption configures a Pool.
type PoolOption func(*Pool)

// PoolChunk bounds specs per sub-batch POST (default 32); n <= 0 keeps the
// default. Smaller chunks lose less work to a dying daemon and re-route
// sooner; larger chunks amortize round trips.
func PoolChunk(n int) PoolOption {
	return func(p *Pool) {
		if n > 0 {
			p.chunk = n
		}
	}
}

// PoolRetry sets the per-submission retry policy the member clients use.
func PoolRetry(rp RetryPolicy) PoolOption {
	return func(p *Pool) { p.retry = rp }
}

// PoolSubmitTimeout bounds each chunk-submission attempt (default none —
// full-scale chunks legitimately simulate for minutes). With a bound, a
// daemon that accepts submissions but never answers (wedged store mount,
// deadlocked host) is re-routed like any other transient failure instead of
// holding the sweep; without one, such a member can still stall a sweep
// even though its healthz probe passes.
func PoolSubmitTimeout(d time.Duration) PoolOption {
	return func(p *Pool) { p.submitTimeout = d }
}

// PoolCooldown sets how long a failed member stays out of the routing ring
// before a health probe may readmit it (default 15s).
func PoolCooldown(d time.Duration) PoolOption {
	return func(p *Pool) {
		if d > 0 {
			p.cooldown = d
		}
	}
}

// PoolProbe replaces the health probe (default Healthy, one short
// GET /v1/healthz). Tests inject failures through it.
func PoolProbe(f func(base string) error) PoolOption {
	return func(p *Pool) {
		if f != nil {
			p.probe = f
		}
	}
}

// PoolFallback attaches a local Runner the Pool fails over to when every
// backend is down — typically sharing the fleet's -cache-dir so locally
// simulated results persist where the daemons will find them.
func PoolFallback(r *sim.Runner) PoolOption {
	return func(p *Pool) { p.fallback = r }
}

// PoolIdentity sets the client identity chunk submissions carry (the
// X-Dkip-Client header), the bucket the daemons' fair-share gates admit
// them under. Default: host-pid, shared by every member client of this
// Pool, so one sweep is one client fleet-wide.
func PoolIdentity(id string) PoolOption {
	return func(p *Pool) { p.identity = id }
}

// PoolMembership enables dynamic membership: between re-route rounds the
// Pool fetches GET /v1/members from a live member and reconciles its ring
// with the view — discovered daemons join the ring, departed ones (expired
// lease or graceful leave) drop out, seeds always stay. interval throttles
// steady-state refreshes (<= 0 refreshes every round; DefaultMemberTTL is a
// sensible production value); a re-route round always refreshes regardless,
// because failures are exactly when the ring is most likely stale.
func PoolMembership(interval time.Duration) PoolOption {
	return func(p *Pool) {
		p.membership = true
		p.refreshInterval = interval
	}
}

// PoolSteal enables work-stealing for stragglers: when a chunk has been in
// flight longer than d and an alive peer is idle, the chunk is resubmitted
// to the idlest peer and the two submissions race — first answer wins, the
// loser is canceled. Duplicated work is nearly free (specs are
// content-keyed; the daemons share one store, so the duplicate is usually a
// dedup or disk hit), while a straggling daemon stops gating the sweep's
// tail. Off by default.
func PoolSteal(d time.Duration) PoolOption {
	return func(p *Pool) {
		if d > 0 {
			p.steal = d
		}
	}
}

// NewPool builds a Pool over the given daemon base URLs (e.g.
// "http://a:8321", "http://b:8321"). Empty entries are dropped; duplicate
// bases are an error — two ring slots for one daemon would skew routing.
func NewPool(bases []string, opts ...PoolOption) (*Pool, error) {
	p := &Pool{
		chunk:    32,
		retry:    DefaultRetry,
		cooldown: 15 * time.Second,
		probe:    Healthy,
		seeds:    make(map[string]bool),
		results:  make(map[string]*sim.Result),
	}
	var order []string
	for _, b := range bases {
		b = normalizeBase(b)
		if b == "" {
			continue
		}
		if p.seeds[b] {
			return nil, fmt.Errorf("serve: pool backend %s listed twice", b)
		}
		p.seeds[b] = true
		order = append(order, b)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("serve: pool needs at least one backend URL")
	}
	for _, o := range opts {
		o(p)
	}
	for _, b := range order {
		p.members = append(p.members, p.newMember(b))
	}
	p.window = make(chan struct{}, 2*len(p.members))
	return p, nil
}

// newMember builds a ring entry and its client; call after options are
// applied so the client inherits the Pool's retry, timeout, and identity.
func (p *Pool) newMember(base string) *member {
	m := &member{base: base}
	// Member metadata reads get a short timeout: Pool.Metrics must not
	// stall for half a minute on a host that died between sweeps.
	m.client = NewClient(base, WithRetry(p.retry),
		MetaTimeout(5*time.Second), SubmitTimeout(p.submitTimeout), Identity(p.identity))
	return m
}

// snapshot returns the current ring. The slice is immutable once published
// (reconcile replaces it wholesale), so callers may iterate without holding
// the lock.
func (p *Pool) snapshot() []*member {
	p.membersMu.RLock()
	defer p.membersMu.RUnlock()
	return p.members
}

// WaitHealthy blocks until at least one backend answers its health probe,
// the budget elapses, or ctx is canceled. One live member makes the whole
// pool usable — rendezvous routing only ever targets members that look
// alive.
func (p *Pool) WaitHealthy(ctx context.Context, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	var lastErr error
	for {
		members := p.snapshot()
		for _, m := range members {
			if lastErr = p.probe(m.base); lastErr == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: none of %d pool backends healthy after %v: %w",
				len(members), budget, lastErr)
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return fmt.Errorf("serve: wait for pool backends: %w", context.Cause(ctx))
		}
	}
}

// alive returns the currently routable members. A member whose down
// cooldown has elapsed gets one health probe: success rejoins it to the
// ring, failure extends the cooldown — keys never route back to a host that
// cannot answer a trivial GET. Expired-cooldown members are probed
// concurrently, so several dead hosts cost the round one probe timeout, not
// one each; concurrent alive() calls share one probe per member rather than
// stacking duplicates against a slow host.
func (p *Pool) alive() []*member {
	now := time.Now()
	var out, expired []*member
	for _, m := range p.snapshot() {
		m.mu.Lock()
		downUntil := m.downUntil
		m.mu.Unlock()
		switch {
		case downUntil.IsZero():
			out = append(out, m)
		case now.Before(downUntil):
			// Still cooling down; not probed, not routable.
		default:
			expired = append(expired, m)
		}
	}
	if len(expired) == 0 {
		return out
	}
	revived := make([]bool, len(expired))
	var wg sync.WaitGroup
	for i, m := range expired {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			revived[i] = p.probeMember(m)
		}(i, m)
	}
	wg.Wait()
	for i, m := range expired {
		if revived[i] {
			out = append(out, m)
		}
	}
	return out
}

// probeMember runs (or joins) the singleflight revival probe for a member
// whose cooldown looked expired, and reports whether the member is routable
// afterwards. Concurrency rules: only one probe per member is in flight —
// late arrivals wait for its outcome instead of launching their own — and a
// markDown that lands while the probe runs (a submission failing right now)
// bumps the member's generation so the probe's stale success cannot revive
// a host that newer evidence says is down.
func (p *Pool) probeMember(m *member) bool {
	m.mu.Lock()
	if m.downUntil.IsZero() {
		m.mu.Unlock()
		return true
	}
	if time.Now().Before(m.downUntil) {
		m.mu.Unlock()
		return false
	}
	if ch := m.probing; ch != nil {
		// A probe is already in flight: join it.
		m.mu.Unlock()
		<-ch
		m.mu.Lock()
		ok := m.downUntil.IsZero()
		m.mu.Unlock()
		return ok
	}
	ch := make(chan struct{})
	m.probing = ch
	gen := m.gen
	m.mu.Unlock()

	err := p.probe(m.base)

	m.mu.Lock()
	var ok bool
	switch {
	case err != nil:
		// Extending the cooldown is safe even when a concurrent markDown
		// already did: both say "down".
		m.downUntil = time.Now().Add(p.cooldown)
	case m.gen == gen:
		// No markDown landed while the probe ran; the success is current.
		m.downUntil = time.Time{}
		ok = true
	default:
		// The probe raced a markDown and lost: the submission failure is
		// newer evidence than our successful GET. Leave the member as the
		// markDown set it.
		ok = m.downUntil.IsZero()
	}
	m.probing = nil
	m.mu.Unlock()
	close(ch)
	return ok
}

// markDown takes a member out of the routing ring for one cooldown and bumps
// its generation so any in-flight revival probe's success is discarded.
func (p *Pool) markDown(m *member) {
	m.mu.Lock()
	m.gen++
	m.downUntil = time.Now().Add(p.cooldown)
	m.mu.Unlock()
}

// refreshMembers fetches the membership view from the first alive member
// serving one and reconciles the ring; reports whether a reconcile ran.
// No-ops when membership is disabled, the throttle interval has not elapsed
// (unless force), no member answers, or the fleet does not serve membership
// (404 — a static fleet of pre-membership daemons keeps working unchanged).
func (p *Pool) refreshMembers(alive []*member, force bool) bool {
	if !p.membership {
		return false
	}
	p.membersMu.Lock()
	if !force && p.refreshInterval > 0 && !p.lastRefresh.IsZero() &&
		time.Since(p.lastRefresh) < p.refreshInterval {
		p.membersMu.Unlock()
		return false
	}
	p.lastRefresh = time.Now()
	p.membersMu.Unlock()
	for _, m := range alive {
		view, err := m.client.Members()
		if err != nil {
			var he *HTTPError
			if errors.As(err, &he) && he.StatusCode == http.StatusNotFound {
				return false // daemon without -advertise: no dynamic membership
			}
			continue // unreachable member: ask the next one
		}
		p.reconcile(view)
		return true
	}
	return false
}

// reconcile rebuilds the ring as the union of the seed URLs and the live
// membership view. Existing member objects are preserved so health state,
// probe generations, and in-flight accounting survive a refresh; discovered
// members join fresh, departed non-seeds drop out.
func (p *Pool) reconcile(view []Member) {
	now := time.Now()
	want := make(map[string]bool, len(view)+len(p.seeds))
	for b := range p.seeds {
		want[b] = true
	}
	for _, m := range view {
		if b := normalizeBase(m.URL); b != "" && m.Live(now) {
			want[b] = true
		}
	}
	bases := make([]string, 0, len(want))
	for b := range want {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	p.membersMu.Lock()
	defer p.membersMu.Unlock()
	existing := make(map[string]*member, len(p.members))
	for _, m := range p.members {
		existing[m.base] = m
	}
	next := make([]*member, 0, len(bases))
	for _, b := range bases {
		if m, ok := existing[b]; ok {
			next = append(next, m)
		} else {
			next = append(next, p.newMember(b))
		}
	}
	p.members = next
}

// route picks the member owning a content key by rendezvous
// (highest-random-weight) hashing over the alive set: every client agrees
// on the assignment without coordination, keys spread evenly, and when a
// member drops out only its own keys move to survivors — the survivors'
// assignments (and therefore their daemons' warm caches) are untouched.
func route(key string, members []*member) *member {
	var best *member
	var bestScore uint64
	for _, m := range members {
		if score := rendezvousScore(key, m.base); best == nil || score > bestScore ||
			(score == bestScore && m.base < best.base) {
			best, bestScore = m, score
		}
	}
	return best
}

// rendezvousScore hashes (key, base) into one 64-bit weight. Raw FNV-1a is
// not enough here: a byte that differs only near the end of the input
// perturbs just the low bits, so the member whose base hashes highest would
// win every key. The splitmix64 finalizer avalanches the digest so every
// input bit reaches every score bit.
func rendezvousScore(key, base string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	h.Write([]byte{0})
	io.WriteString(h, base)
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Run submits one spec through the fleet.
func (p *Pool) Run(spec sim.RunSpec) (*sim.Result, error) {
	results, err := p.RunAll([]sim.RunSpec{spec})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunAll routes each spec to its daemon, submits bounded chunks
// concurrently, and blocks until every run resolves; results[i] corresponds
// to specs[i]. Chunks that fail transiently after their member's retries
// re-route to surviving members; with no survivors the remainder runs on
// the local fallback Runner, or the sweep fails if none is configured.
// Specs carrying opaque function fields are refused before anything is
// sent, like Client.RunAll.
func (p *Pool) RunAll(specs []sim.RunSpec) ([]*sim.Result, error) {
	keys := make([]string, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if !s.Portable() {
			return nil, fmt.Errorf("serve: spec %s carries opaque function fields and cannot run on a fleet", s.Label())
		}
		keys[i] = s.Key()
	}
	// One submission per unique key: in-batch duplicates are resolved once
	// fleet-wide and copied per index below.
	unique := make(map[string]sim.RunSpec, len(specs))
	var pending []string
	for i, k := range keys {
		if _, ok := unique[k]; !ok {
			unique[k] = specs[i]
			pending = append(pending, k)
		}
	}

	resolved := make(map[string]*sim.Result, len(unique))
	for round := 0; len(pending) > 0; round++ {
		alive := p.alive()
		if p.membership && len(alive) > 0 {
			// Failures (round > 0) force a refresh past the throttle: a
			// re-route is exactly when the ring is most likely stale — the
			// failed member may have left, and a fresh joiner may be ready
			// to absorb its keys.
			if p.refreshMembers(alive, round > 0) {
				alive = p.alive()
			}
		}
		ringSize := len(p.snapshot())
		if len(alive) == 0 || round > ringSize {
			// Every backend is down, or the round budget is spent (a member
			// keeps passing its health probe and then failing submissions):
			// the sweep still finishes if a local fallback was configured.
			if p.fallback == nil {
				if len(alive) == 0 {
					return nil, fmt.Errorf("serve: could not place %d runs: all %d pool backends unhealthy and no local fallback configured",
						len(pending), ringSize)
				}
				return nil, fmt.Errorf("serve: could not place %d runs after %d re-route rounds (backends accept probes but fail submissions) and no local fallback configured",
					len(pending), round)
			}
			fspecs := make([]sim.RunSpec, len(pending))
			for i, k := range pending {
				fspecs[i] = unique[k]
			}
			results, err := p.fallback.RunAll(fspecs)
			if err != nil {
				return nil, err
			}
			for i, k := range pending {
				resolved[k] = results[i]
			}
			pending = nil
			break
		}

		groups := make(map[*member][]string, len(alive))
		for _, k := range pending {
			m := route(k, alive)
			groups[m] = append(groups[m], k)
		}
		var (
			wg       sync.WaitGroup
			outMu    sync.Mutex
			failures []string // keys to re-route next round
			fatal    error
		)
		for m, mkeys := range groups {
			for start := 0; start < len(mkeys); start += p.chunk {
				ck := mkeys[start:min(start+p.chunk, len(mkeys))]
				wg.Add(1)
				p.window <- struct{}{}
				go func(m *member, ck []string) {
					defer wg.Done()
					defer func() { <-p.window }()
					// Another chunk may have marked this member down while
					// we queued for a window slot: skip straight to
					// re-routing instead of burning a full retry ladder
					// against a host already known dead.
					if m.down(time.Now()) {
						outMu.Lock()
						failures = append(failures, ck...)
						outMu.Unlock()
						return
					}
					cs := make([]sim.RunSpec, len(ck))
					for i, k := range ck {
						cs[i] = unique[k]
					}
					res, err := p.submitChunk(m, cs, alive)
					outMu.Lock()
					defer outMu.Unlock()
					if err != nil {
						if Transient(err) {
							failures = append(failures, ck...)
						} else if fatal == nil {
							fatal = err
						}
						return
					}
					for i, k := range ck {
						resolved[k] = res[i]
					}
				}(m, ck)
			}
		}
		wg.Wait()
		if fatal != nil {
			return nil, fatal
		}
		// Deterministic re-route order regardless of chunk completion order.
		sort.Strings(failures)
		pending = failures
	}

	p.mu.Lock()
	for k, r := range resolved {
		if _, seen := p.results[k]; !seen {
			p.results[k] = r.WithCached(r.Cached)
		}
	}
	p.mu.Unlock()
	out := make([]*sim.Result, len(specs))
	for i, k := range keys {
		// Each index gets its own copy, per the Backend contract.
		out[i] = resolved[k].WithCached(resolved[k].Cached)
	}
	return out, nil
}

// submitChunk submits one chunk to its routed member. With stealing enabled
// and the chunk still unanswered after the steal deadline, the chunk is
// duplicated to the idlest alive peer and the two submissions race: first
// success wins and cancels the other (cancellation is non-transient, so the
// loser's retry ladder stops dead). Transient failures mark the failing
// member down either way.
func (p *Pool) submitChunk(primary *member, specs []sim.RunSpec, peers []*member) ([]*sim.Result, error) {
	if p.steal <= 0 || len(peers) < 2 {
		res, err := p.timedRunAll(context.Background(), primary, specs)
		if err != nil && Transient(err) {
			p.markDown(primary)
		}
		return res, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type answer struct {
		m   *member
		res []*sim.Result
		err error
	}
	ch := make(chan answer, 2) // buffered: the canceled loser's answer is never read
	submit := func(m *member) {
		res, err := p.timedRunAll(ctx, m, specs)
		ch <- answer{m, res, err}
	}
	outstanding := 1
	go submit(primary)
	timer := time.NewTimer(p.steal)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case a := <-ch:
			if a.err == nil {
				return a.res, nil
			}
			if Transient(a.err) {
				p.markDown(a.m)
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if outstanding--; outstanding == 0 {
				return nil, firstErr
			}
		case <-timer.C:
			// The primary is straggling. One steal per chunk: resubmit to
			// the idlest peer (duplicates are nearly free — the daemons
			// share singleflight keys through one store) and let the two
			// race. With every peer busy or down right now, re-arm and try
			// again — peers finishing their own chunks become eligible.
			if thief := p.idlestPeer(primary, peers); thief != nil {
				outstanding++
				go submit(thief)
			} else {
				timer.Reset(p.steal)
			}
		}
	}
}

// timedRunAll wraps a member submission with the in-flight and latency
// accounting the steal scheduler picks targets by.
func (p *Pool) timedRunAll(ctx context.Context, m *member, specs []sim.RunSpec) ([]*sim.Result, error) {
	m.inflight.Add(1)
	start := time.Now()
	res, err := m.client.runAll(ctx, specs)
	m.inflight.Add(-1)
	if err == nil {
		m.latencyNs.Store(time.Since(start).Nanoseconds())
	}
	return res, err
}

// idlestPeer picks the steal target: an alive peer (not the primary, not
// down) with nothing in flight, preferring the fastest last-observed chunk
// latency; nil when every peer is busy or down. Members never observed
// (latency 0) rank last among idle peers — a host that has answered fast is
// a better bet than one that has answered nothing.
func (p *Pool) idlestPeer(primary *member, peers []*member) *member {
	now := time.Now()
	var best *member
	var bestLat int64
	for _, m := range peers {
		if m == primary || m.down(now) || m.inflight.Load() != 0 {
			continue
		}
		lat := m.latencyNs.Load()
		if lat == 0 {
			lat = math.MaxInt64
		}
		if best == nil || lat < bestLat || (lat == bestLat && m.base < best.base) {
			best, bestLat = m, lat
		}
	}
	return best
}

// Results returns copies of the unique runs resolved fleet-wide (including
// any the local fallback simulated), sorted by content key — the same
// contract as Runner.Results and Client.Results, so pool, single-daemon,
// and local artifacts compare key-for-key.
func (p *Pool) Results() []*sim.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*sim.Result, 0, len(p.results))
	for _, res := range p.results {
		out = append(out, res.WithCached(res.Cached))
	}
	sim.SortResults(out)
	return out
}

// Metrics sums the daemons' cumulative counters into one fleet-wide view,
// plus the local fallback Runner's when one is configured. Members
// currently marked down contribute zeros (matching Client.Metrics on an
// unreachable daemon) instead of stalling the read.
func (p *Pool) Metrics() sim.Metrics {
	now := time.Now()
	members := p.snapshot()
	// Fan the per-member reads out like alive() fans probes out: several
	// dead-but-not-marked members cost one metadata timeout, not one each.
	snaps := make([]sim.Metrics, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		if m.down(now) {
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			snaps[i] = m.client.Metrics()
		}(i, m)
	}
	wg.Wait()
	var total sim.Metrics
	for _, s := range snaps {
		total = total.Plus(s)
	}
	if p.fallback != nil {
		total = total.Plus(p.fallback.Metrics())
	}
	return total
}
