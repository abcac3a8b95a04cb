package sim

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"

	"dkip/internal/pipeline"
	"dkip/internal/sample"
	"dkip/internal/workload"
)

// Metrics counts Runner activity. Requested = Simulated + Deduped +
// CacheHits + DiskHits + Skipped + failures; Uncacheable counts the subset
// of Simulated forced by non-memoizable specs.
type Metrics struct {
	// Requested counts Run calls (including those served without
	// simulating).
	Requested uint64 `json:"requested"`
	// Simulated counts actual processor executions.
	Simulated uint64 `json:"simulated"`
	// Deduped counts Run calls that joined an identical in-flight
	// simulation (singleflight).
	Deduped uint64 `json:"deduped"`
	// CacheHits counts Run calls served from the in-process memo cache.
	CacheHits uint64 `json:"cache_hits"`
	// DiskHits counts Run calls served from the persistent Store
	// (WithStore) instead of simulating.
	DiskHits uint64 `json:"disk_hits"`
	// DiskWrites counts fresh results persisted to the Store.
	DiskWrites uint64 `json:"disk_writes"`
	// Skipped counts Run calls for specs outside this Runner's shard
	// (WithShard) that no cache tier could serve; they return zero-stats
	// placeholder Results with Skipped set.
	Skipped uint64 `json:"skipped"`
	// Uncacheable counts simulations of specs the cache could not hold
	// (opaque configs without a Tag).
	Uncacheable uint64 `json:"uncacheable"`
	// CheckpointHits / CheckpointMisses / CheckpointWrites count
	// architectural-checkpoint store traffic from sampled runs: intervals
	// that reloaded a stored checkpoint, intervals that functionally warmed
	// from scratch, and checkpoints persisted. They sit outside the
	// Requested identity (they count intervals, not Run calls).
	CheckpointHits   uint64 `json:"checkpoint_hits"`
	CheckpointMisses uint64 `json:"checkpoint_misses"`
	CheckpointWrites uint64 `json:"checkpoint_writes"`
}

// Plus returns the field-wise sum of two snapshots — how a multi-daemon
// federation (serve.Pool) folds per-backend counters into one fleet-wide
// view. The Requested identity documented on Metrics holds for the sum
// because it holds for each term.
func (m Metrics) Plus(o Metrics) Metrics {
	m.Requested += o.Requested
	m.Simulated += o.Simulated
	m.Deduped += o.Deduped
	m.CacheHits += o.CacheHits
	m.DiskHits += o.DiskHits
	m.DiskWrites += o.DiskWrites
	m.Skipped += o.Skipped
	m.Uncacheable += o.Uncacheable
	m.CheckpointHits += o.CheckpointHits
	m.CheckpointMisses += o.CheckpointMisses
	m.CheckpointWrites += o.CheckpointWrites
	return m
}

// Counter is one named Metrics field: the snapshot hook exporters consume.
type Counter struct {
	// Name is the field's snake_case wire name, matching the JSON encoding.
	Name string
	// Value is the count at snapshot time.
	Value uint64
}

// Counters flattens the snapshot into named (name, value) pairs, in
// declaration order. It is the single source of truth for metric exporters
// (dkipd's Prometheus /metrics): a counter added to Metrics shows up in
// every exposition without the serve layer naming it a second time.
func (m Metrics) Counters() []Counter {
	return []Counter{
		{"requested", m.Requested},
		{"simulated", m.Simulated},
		{"deduped", m.Deduped},
		{"cache_hits", m.CacheHits},
		{"disk_hits", m.DiskHits},
		{"disk_writes", m.DiskWrites},
		{"skipped", m.Skipped},
		{"uncacheable", m.Uncacheable},
		{"checkpoint_hits", m.CheckpointHits},
		{"checkpoint_misses", m.CheckpointMisses},
		{"checkpoint_writes", m.CheckpointWrites},
	}
}

// Option configures a Runner.
type Option func(*Runner)

// Parallel bounds concurrent simulations; n <= 0 means GOMAXPROCS.
func Parallel(n int) Option {
	return func(r *Runner) {
		if n > 0 {
			r.sem = make(chan struct{}, n)
		}
	}
}

// OnSimulate installs a hook invoked once per actual simulation (never for
// deduplicated or cached runs), from the simulating goroutine. Tests use it
// to prove overlapping specs execute exactly once.
func OnSimulate(fn func(RunSpec)) Option {
	return func(r *Runner) { r.hook = fn }
}

// NoMemo disables the memoizing result cache while keeping in-flight
// deduplication: sequential repeats re-simulate, concurrent duplicates still
// coalesce. It also bypasses any attached Store — NoMemo means "always
// really simulate". Benchmarks measuring raw simulator speed use it.
func NoMemo() Option {
	return func(r *Runner) { r.memo = false }
}

// WithStore attaches a persistent content-addressed Store as a second cache
// tier under the in-process memo cache: Run consults it before simulating
// (Metrics.DiskHits) and persists every fresh memoizable result after
// simulating (Metrics.DiskWrites), so a warm cache directory survives the
// process and can be shared across machines. Store I/O errors are treated
// as misses — a broken disk degrades to PR-1 behaviour, it never fails a
// run.
func WithStore(s *Store) Option {
	return func(r *Runner) { r.store = s }
}

// WithShard restricts real simulation to the specs assigned to shard i of n
// (see InShard): out-of-shard specs are still served from the memo cache or
// the Store when possible, but are never simulated — a miss yields a
// zero-stats placeholder Result with Skipped set (Metrics.Skipped). Running
// every shard with one shared Store populates exactly the unsharded result
// set, after which an unsharded pass over the same Store serves everything
// from disk.
func WithShard(i, n int) Option {
	return func(r *Runner) { r.shardI, r.shardN = i, n }
}

// Runner executes RunSpecs on a bounded worker pool with singleflight
// deduplication and an in-process memoizing cache, optionally backed by a
// persistent Store. It is safe for concurrent use; one process-wide Runner
// shared by every experiment gives cross-figure deduplication.
type Runner struct {
	sem            chan struct{}
	hook           func(RunSpec)
	memo           bool
	store          *Store
	shardI, shardN int

	mu      sync.Mutex
	calls   map[string]*call
	waiters map[string][]chan *Result
	results []*Result
	m       Metrics
	// running counts the simulations holding a worker slot, and lent the
	// CPUs lent to their sampled intervals (lendCPU); lends counts every
	// CPU lent so far.
	running, lent int
	lends         uint64
}

// call is one in-flight or completed simulation.
type call struct {
	done chan struct{}
	res  *Result
	err  error
}

// NewRunner builds a Runner. With no options: GOMAXPROCS workers, memoizing
// cache on, no hook.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{memo: true, calls: make(map[string]*call)}
	for _, o := range opts {
		o(r)
	}
	if r.sem == nil {
		r.sem = make(chan struct{}, runtime.GOMAXPROCS(0))
	}
	return r
}

// Run executes the spec (or returns the memoized result of an identical
// earlier run). The returned Result is the caller's own copy; Cached reports
// whether a simulation was avoided.
func (r *Runner) Run(spec RunSpec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.Memoizable() {
		in := InShard(spec, r.shardI, r.shardN)
		r.mu.Lock()
		r.m.Requested++
		if in {
			r.m.Uncacheable++
		} else {
			r.m.Skipped++
		}
		r.mu.Unlock()
		if !in {
			return placeholder(spec, ""), nil
		}
		return r.simulate(spec)
	}
	key := spec.Key()
	r.mu.Lock()
	r.m.Requested++
	if c, ok := r.calls[key]; ok {
		select {
		case <-c.done:
			r.m.CacheHits++
		default:
			r.m.Deduped++
		}
		r.mu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, c.err
		}
		// A joiner of an out-of-shard call receives the placeholder, which
		// no cache tier served: keep its Cached contract honest.
		return c.res.clone(!c.res.Skipped), nil
	}
	c := &call{done: make(chan struct{})}
	r.calls[key] = c
	r.mu.Unlock()

	// Read-through: consult the persistent store before simulating. A disk
	// hit completes the memo-cache entry, so repeats within this process
	// are ordinary CacheHits.
	if r.memo && r.store != nil {
		if res, ok := r.store.Get(key); ok {
			c.res = res
			r.mu.Lock()
			r.m.DiskHits++
			// Record the disk-served run (marked Cached) so -json
			// artifacts of warm or merged passes still carry every
			// per-run record.
			r.results = append(r.results, res.clone(true))
			r.mu.Unlock()
			// Mark the call complete before notifying: a Subscribe
			// arriving between the two either sees the closed channel
			// (served immediately) or registered its waiter before this
			// lock (served by the notify) — never neither.
			close(c.done)
			r.mu.Lock()
			r.notifyLocked(key, res)
			r.mu.Unlock()
			return c.res.clone(true), nil
		}
	}
	if !InShard(spec, r.shardI, r.shardN) {
		// Out of shard with both tiers cold: resolve waiters with a
		// placeholder, but drop the memo entry so a later run over a
		// warmer store can still resolve the spec for real.
		c.res = placeholder(spec, key)
		r.mu.Lock()
		r.m.Skipped++
		delete(r.calls, key)
		r.mu.Unlock()
		close(c.done)
		return c.res.clone(false), nil
	}

	c.res, c.err = r.simulate(spec)
	// Write-behind: persist the fresh result once the simulation is done;
	// a failed write is a cache non-event, not a run failure.
	if c.err == nil && r.memo && r.store != nil && r.store.Put(c.res) == nil {
		r.mu.Lock()
		r.m.DiskWrites++
		r.mu.Unlock()
	}
	// Complete the call before notifying subscriptions (see the disk-hit
	// path for the ordering argument).
	close(c.done)
	r.mu.Lock()
	if c.err != nil || !r.memo {
		// Drop the entry so later Runs retry (or, without memoization,
		// re-simulate); concurrent waiters still get this result.
		delete(r.calls, key)
	}
	if c.err == nil {
		r.notifyLocked(key, c.res)
	}
	r.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	return c.res.clone(false), nil
}

// placeholder builds the zero-stats Result an out-of-shard spec resolves to
// when no cache tier holds the real record.
func placeholder(spec RunSpec, key string) *Result {
	return &Result{
		Key:     key,
		Arch:    spec.Arch.String(),
		Config:  spec.ConfigName(),
		Bench:   spec.Bench,
		Warmup:  spec.Warmup,
		Measure: spec.Measure,
		Skipped: true,
		Stats:   &pipeline.Stats{},
	}
}

// simulate performs one real execution under the worker-pool bound.
func (r *Runner) simulate(spec RunSpec) (*Result, error) {
	r.sem <- struct{}{}
	r.mu.Lock()
	r.running++
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.running--
		r.mu.Unlock()
		<-r.sem
	}()
	if r.hook != nil {
		r.hook(spec)
	}
	// A non-memoizable spec's content hash cannot see the opaque fields
	// that make it uncacheable; stamping it would let -json consumers
	// conflate behaviourally different runs. Leave Key empty instead.
	key := ""
	if spec.Memoizable() {
		key = spec.Key()
	}
	start := time.Now()
	var st *pipeline.Stats
	var sum *sample.Summary
	if spec.Sample.Enabled() {
		// Sampled runs reuse the Store as a checkpoint tier (NoMemo runners
		// bypass it, same as the result tiers). What the store held changes
		// only the metrics, never the result.
		var ckStore *Store
		if r.memo {
			ckStore = r.store
		}
		var io sample.IO
		var err error
		st, sum, io, err = simulateSampled(spec, ckStore, r.lendCPU)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.m.CheckpointHits += io.Hits
		r.m.CheckpointMisses += io.Misses
		r.m.CheckpointWrites += io.Writes
		r.mu.Unlock()
	} else {
		g, err := workload.New(spec.Bench)
		if err != nil {
			return nil, err
		}
		st = Simulate(spec, g, g.WarmRanges())
	}
	res := &Result{
		Key:     key,
		Arch:    spec.Arch.String(),
		Config:  spec.ConfigName(),
		Bench:   spec.Bench,
		Warmup:  spec.Warmup,
		Measure: spec.Measure,
		Elapsed: time.Since(start),
		Stats:   st,
		Sampled: sum,
	}
	r.mu.Lock()
	r.m.Simulated++
	r.results = append(r.results, res)
	r.mu.Unlock()
	return res, nil
}

// lendCPU is the sample.Config.LendCPU of the Runner's sampled runs: it
// lends a detailed interval a CPU only while the running simulations plus
// the CPUs already lent are fewer than GOMAXPROCS, so a sweep that keeps
// every worker busy runs its intervals inline and is not oversubscribed.
func (r *Runner) lendCPU() func() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running+r.lent >= runtime.GOMAXPROCS(0) {
		return nil
	}
	r.lent++
	r.lends++
	return func() {
		r.mu.Lock()
		r.lent--
		r.mu.Unlock()
	}
}

// RunAll executes all specs concurrently (bounded by the worker pool),
// preserving order: results[i] corresponds to specs[i]. On error the
// remaining specs still run; the joined error and any nil results are
// returned together.
func (r *Runner) RunAll(specs []RunSpec) ([]*Result, error) {
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Run(specs[i])
		}(i)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// Metrics returns a snapshot of the counters.
func (r *Runner) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m
}

// Results returns copies of the unique runs this Runner resolved so far —
// fresh simulations (Cached false) and store-served records (Cached true) —
// the per-run records behind cmd/experiments -json. Memo-cache repeats and
// out-of-shard placeholders are not recorded. The slice is sorted by content
// key (identity fields break ties for uncacheable runs, whose Key is empty),
// never by completion order, so artifacts produced under -parallel > 1 are
// byte-for-byte reproducible.
func (r *Runner) Results() []*Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Result, len(r.results))
	for i, res := range r.results {
		out[i] = res.clone(res.Cached)
	}
	SortResults(out)
	return out
}

// SortResults orders per-run records by content key, then by the identity
// fields for records without one. Every artifact emitter sorts with it so
// equal run sets of memoizable specs encode identically regardless of
// completion order. Uncacheable runs (Key "") that also share every
// identity field have no remaining discriminator — behaviourally distinct
// machines the hash cannot see — and keep completion order among
// themselves; byte-determinism is only promised for keyed records.
func SortResults(results []*Result) {
	sort.SliceStable(results, func(i, j int) bool {
		a, b := results[i], results[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Arch != b.Arch {
			return a.Arch < b.Arch
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Warmup != b.Warmup {
			return a.Warmup < b.Warmup
		}
		return a.Measure < b.Measure
	})
}

// Lookup returns the completed in-process result for a content key, without
// simulating or touching the persistent store. It is the keyed read side the
// serve layer uses for GET-by-key; an in-flight or failed call reports a
// miss.
func (r *Runner) Lookup(key string) (*Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.calls[key]
	if !ok {
		return nil, false
	}
	select {
	case <-c.done:
	default:
		return nil, false
	}
	if c.err != nil || c.res == nil || c.res.Skipped {
		return nil, false
	}
	return c.res.clone(true), true
}

// Subscribe registers interest in a content key: the returned channel
// (buffered, capacity one) receives the Result as soon as any Run resolves
// the key — including a resolution already completed — and the cancel
// function releases the registration; callers that stop waiting (timeout,
// disconnected client) must invoke it. Failed runs do not fulfil
// subscriptions: the key may still resolve on a later retry, and callers
// bound their own wait. This is the hook behind the serve layer's
// GET /v1/runs/{key}?wait=1.
func (r *Runner) Subscribe(key string) (<-chan *Result, func()) {
	ch := make(chan *Result, 1)
	r.mu.Lock()
	// Check for an already-completed call and register the waiter under one
	// critical section, so a resolution can never slip between the two.
	if c, ok := r.calls[key]; ok {
		select {
		case <-c.done:
			if c.err == nil && c.res != nil && !c.res.Skipped {
				ch <- c.res.clone(true)
				r.mu.Unlock()
				return ch, func() {}
			}
		default:
		}
	}
	if r.waiters == nil {
		r.waiters = make(map[string][]chan *Result)
	}
	r.waiters[key] = append(r.waiters[key], ch)
	r.mu.Unlock()
	cancel := func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		ws := r.waiters[key]
		for i, w := range ws {
			if w == ch {
				r.waiters[key] = append(ws[:i:i], ws[i+1:]...)
				break
			}
		}
		if len(r.waiters[key]) == 0 {
			delete(r.waiters, key)
		}
	}
	return ch, cancel
}

// notifyLocked fulfils every subscription for key with its freshly resolved
// result. Caller holds r.mu; the channels are buffered, so delivery never
// blocks under the lock.
func (r *Runner) notifyLocked(key string, res *Result) {
	for _, ch := range r.waiters[key] {
		ch <- res.clone(true)
	}
	delete(r.waiters, key)
}
