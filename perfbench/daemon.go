package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dkip/internal/serve"
	"dkip/internal/sim"
	"dkip/internal/workload"
	"dkip/internal/xrand"
)

const (
	// perPass is how many requests each client sends in one pass.
	perPass = 1000
	// freshEvery: one request in each block of this many, at a seeded
	// place in the block, names a spec the daemon has never seen, so the
	// daemon simulates it and writes its result. A fixed share keeps the
	// simulation work of a pass the same under every seed.
	freshEvery = 20
	// warmupRequests is each client's untimed burst at the end of set-up.
	warmupRequests = 100
	// identityHeader carries a serve.Client's identity on every request.
	identityHeader = "X-Dkip-Client"
)

// daemonRun is daemon-mixed: an in-process daemon on a loopback listener,
// its Runner on a Store primed with the request pool, and closed-loop
// clients that each wait for a reply before sending the next spec.
type daemonRun struct {
	env     *env
	pool    []sim.RunSpec
	store   *sim.Store
	runner  *sim.Runner
	srv     *http.Server
	served  chan error
	clients []*daemonClient
	tracing atomic.Pointer[tracer]
	// responses maps each distinct content key served to what was served.
	responses map[string]*response
}

// daemonClient is one closed-loop client with its own request stream.
type daemonClient struct {
	id   string
	c    *serve.Client
	rng  *xrand.Rand
	sent int
	// freshAt is the place of the fresh request in the current block.
	freshAt int
	// order is the seeded order in which fresh requests walk the pool, so
	// every pool spec is simulated fresh about equally often and the mix of
	// fresh work does not vary with the seed.
	order []int
	fresh int
	// span and op identify the request in flight while tracing, so the
	// daemon's handler span can name it as parent.
	span atomic.Int64
	op   atomic.Uint64
}

// request is one generated submission.
type request struct {
	spec  sim.RunSpec
	fresh bool
}

// response is what the daemon served for one content key.
type response struct {
	spec  sim.RunSpec
	res   *sim.Result
	count int
	// inconsistent marks a key served with different outcomes.
	inconsistent bool
}

func setUpDaemon(e *env) (instance, error) {
	store, err := sim.OpenStore(filepath.Join(e.dir, "store"))
	if err != nil {
		return nil, err
	}
	d := &daemonRun{env: e, pool: daemonPool(), store: store, responses: make(map[string]*response)}
	if _, err := sim.NewRunner(sim.WithStore(store), sim.Parallel(e.workers)).RunAll(d.pool); err != nil {
		return nil, fmt.Errorf("prime store: %w", err)
	}
	d.runner = sim.NewRunner(sim.WithStore(store), sim.Parallel(e.workers))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv = &http.Server{Handler: &tracingHandler{d: d, h: serve.NewServer(d.runner, store)}, ReadHeaderTimeout: 10 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := serve.WaitHealthy(ctx, base, 10*time.Second); err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i < e.workers; i++ {
		id := fmt.Sprintf("perfbench-%d", i)
		rng := xrand.New(e.seed*0x9E3779B97F4A7C15 + uint64(i))
		order := make([]int, len(d.pool))
		for j := range order {
			k := rng.Intn(j + 1)
			order[j], order[k] = order[k], j
		}
		d.clients = append(d.clients, &daemonClient{
			id:    id,
			c:     serve.NewClient(base, serve.Identity(id)),
			rng:   rng,
			order: order,
		})
	}
	// Warm up with an untimed, unchecked burst from every client.
	for _, c := range d.clients {
		for _, rq := range d.requests(c, warmupRequests) {
			if _, err := c.c.Run(rq.spec); err != nil {
				d.close()
				return nil, fmt.Errorf("warmup: %w", err)
			}
		}
	}
	return d, nil
}

// requests draws the client's next n requests from its seeded stream. A
// fresh request is a pool spec with a tag no earlier request carried: the
// tag makes a new content key without changing what is simulated.
func (d *daemonRun) requests(c *daemonClient, n int) []request {
	out := make([]request, n)
	for i := range out {
		var spec sim.RunSpec
		if c.sent%freshEvery == 0 {
			c.freshAt = c.rng.Intn(freshEvery)
		}
		fresh := c.sent%freshEvery == c.freshAt
		if fresh {
			spec = d.pool[c.order[c.fresh%len(c.order)]]
			spec.Tag = fmt.Sprintf("fresh-%d-%s-%d", d.env.seed, c.id, c.sent)
			c.fresh++
		} else {
			spec = d.pool[c.rng.Intn(len(d.pool))]
		}
		c.sent++
		out[i] = request{spec, fresh}
	}
	return out
}

func (d *daemonRun) pass(tr *tracer) (passResult, error) {
	reqs := make([][]request, len(d.clients))
	for i, c := range d.clients {
		reqs[i] = d.requests(c, perPass)
	}
	ops := make([][]opRecord, len(d.clients))
	results := make([][]*sim.Result, len(d.clients))
	d.tracing.Store(tr)
	defer d.tracing.Store(nil)
	var wg sync.WaitGroup
	before := d.runner.Metrics()
	start := time.Now()
	for i, c := range d.clients {
		wg.Add(1)
		go func(i int, c *daemonClient) {
			defer wg.Done()
			ops[i], results[i] = c.loop(tr, reqs[i])
		}(i, c)
	}
	wg.Wait()
	p := passResult{wall: time.Since(start), counts: since(d.runner.Metrics(), before), fromRunner: true}
	for i := range d.clients {
		for j, res := range results[i] {
			if res != nil {
				d.note(reqs[i][j].spec, res)
			}
		}
		p.ops = append(p.ops, ops[i]...)
	}
	return p, nil
}

// loop sends the requests one after another, each as soon as the previous
// reply arrives.
func (c *daemonClient) loop(tr *tracer, reqs []request) ([]opRecord, []*sim.Result) {
	ops := make([]opRecord, len(reqs))
	results := make([]*sim.Result, len(reqs))
	for j, rq := range reqs {
		id := 0
		if tr != nil {
			op := tr.newOp()
			id = tr.begin(op, 0, "serve.client")
			c.op.Store(op)
			c.span.Store(int64(id))
		}
		start := time.Now()
		res, err := c.c.Run(rq.spec)
		ops[j] = opRecord{arch: rq.spec.Arch, rtt: time.Since(start), failed: err != nil}
		if tr != nil {
			tr.end(id)
		}
		if err != nil {
			reportFailure(fmt.Errorf("%s: %w", rq.spec.Label(), err))
			continue
		}
		if rq.fresh {
			ops[j].committed = res.Stats.Committed
		}
		results[j] = res
	}
	return ops, results
}

// note folds one reply into the distinct responses checked at the end.
func (d *daemonRun) note(spec sim.RunSpec, res *sim.Result) {
	r, ok := d.responses[res.Key]
	if !ok {
		d.responses[res.Key] = &response{spec: spec, res: res, count: 1}
		return
	}
	r.count++
	if *res.Stats != *r.res.Stats {
		r.inconsistent = true
	}
}

// finish checks every distinct response: its key must be the spec's
// content key, the store must hold the same record, and its outcome must
// equal a local simulation of the spec. A fresh spec differs from its pool
// spec only by tag, which names the run without changing what runs, so
// each pool spec is simulated locally once.
func (d *daemonRun) finish(tr *tracer) int {
	failed := 0
	local := make(map[string]string)
	for key, r := range d.responses {
		spec := r.spec
		var err error
		var got string
		var stored *sim.Result
		var inStore bool
		timed(tr, "sim.validate", func() { err = spec.Validate() })
		timed(tr, "sim.key", func() { got = spec.Key() })
		timed(tr, "sim.store_get", func() { stored, inStore = d.store.Get(key) })
		base := spec
		base.Tag = ""
		bk := base.Key()
		want, ok := local[bk]
		if !ok {
			g := workload.MustNew(base.Bench)
			want = digest(sim.Simulate(base, g, g.WarmRanges()), nil)
			local[bk] = want
		}
		switch {
		case err != nil:
			err = fmt.Errorf("%s: %w", key, err)
		case got != key:
			err = fmt.Errorf("%s: served under key %s, spec key %s", spec.Label(), key, got)
		case r.inconsistent:
			err = fmt.Errorf("%s: one key served with different outcomes", key)
		case digest(r.res.Stats, r.res.Sampled) != want:
			err = fmt.Errorf("%s (%s): served outcome differs from a local simulation", key, spec.Label())
		case !inStore || digest(stored.Stats, stored.Sampled) != want:
			err = fmt.Errorf("%s (%s): store does not hold the served record", key, spec.Label())
		}
		if err != nil {
			reportFailure(err)
			failed += r.count
		}
	}
	return failed
}

// timed runs f, inside a span of its own operation when tracing.
func timed(tr *tracer, name string, f func()) {
	if tr == nil {
		f()
		return
	}
	id := tr.begin(tr.newOp(), 0, name)
	f()
	tr.end(id)
}

func (d *daemonRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		reportFailure(fmt.Errorf("daemon shutdown: %w", err))
	}
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		reportFailure(fmt.Errorf("daemon: %w", err))
	}
}

// tracingHandler wraps the daemon. While a traced pass runs, it records a
// span around every request, parented by the client request in flight, and
// counts the bytes of every response.
type tracingHandler struct {
	d *daemonRun
	h http.Handler
}

func (t *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.d.tracing.Load()
	if tr == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	var op uint64
	parent := 0
	for _, c := range t.d.clients {
		if c.id == r.Header.Get(identityHeader) {
			op, parent = c.op.Load(), int(c.span.Load())
		}
	}
	id := tr.begin(op, parent, "serve.handler")
	cw := &countingWriter{ResponseWriter: w}
	t.h.ServeHTTP(cw, r)
	tr.end(id)
	tr.mu.Lock()
	tr.obs.responses++
	tr.obs.responseBytes += cw.n
	tr.mu.Unlock()
}

// countingWriter counts the body bytes written through it.
type countingWriter struct {
	http.ResponseWriter
	n uint64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += uint64(n)
	return n, err
}
