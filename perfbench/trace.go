package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dkip/internal/ckpt"
	"dkip/internal/core"
	"dkip/internal/inorder"
	"dkip/internal/isa"
	"dkip/internal/ooo"
	"dkip/internal/pipeline"
	"dkip/internal/predictor"
	"dkip/internal/sample"
	"dkip/internal/sim"
	"dkip/internal/trace"
)

// span is one recorded call into a layer. Op is shared by every span of one
// run or request; Parent is the enclosing span's ID (0 for an operation's
// root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run and aggregates the
// per-layer observations that are not spans: counts of the hot interface
// calls and exact counters read from the program's public fields.
type tracer struct {
	t0 time.Time
	// clockNs is the cost of the clock reads around one timed hot call,
	// subtracted from the timed calls' mean.
	clockNs float64

	mu     sync.Mutex
	spans  []span
	nextOp uint64
	obs    observations
}

func newTracer() *tracer { return &tracer{t0: time.Now(), clockNs: clockCost()} }

// clockCost measures the mean cost of an empty timed bracket, the same
// time.Now and time.Since pair the hot-call wrappers put around a call.
func clockCost() float64 {
	const n = 20000
	var total int64
	for i := 0; i < n; i++ {
		t := time.Now()
		total += int64(time.Since(t))
	}
	return float64(total) / n
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(op uint64, parent int, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// simCounts returns the Runner counters the traced operations have tallied
// so far.
func (t *tracer) simCounts() sim.Metrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.obs.sim
}

// newOp allocates an operation ID.
func (t *tracer) newOp() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover. Overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans dumps every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// hot counts calls through one of the engine's hot interfaces. Every call
// is counted; about one in hotSample is timed, so the clock reads stay a
// small share of the call's own cost. The gap between timed calls is
// pseudo-random: a fixed stride could lock onto a periodic pattern in the
// instruction stream and time only one phase of it.
type hot struct {
	calls   uint64
	timed   uint64
	timedNs int64
	next    uint64 // index of the next timed call
	rng     uint64 // xorshift state for the gaps
}

const hotSample = 1024

// sample reports whether the current call is to be timed, and if so
// schedules the next one.
func (h *hot) sample() bool {
	if h.calls < h.next {
		return false
	}
	if h.rng == 0 {
		h.rng = 0x9E3779B97F4A7C15
	}
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	h.next = h.calls + hotSample/2 + h.rng%hotSample
	return true
}

func (h *hot) add(o hot) {
	h.calls += o.calls
	h.timed += o.timed
	h.timedNs += o.timedNs
}

// nsPerCall is the mean duration of the timed calls, less the cost of the
// clock reads that bracket each.
func (h hot) nsPerCall(clockNs float64) float64 {
	if h.timed == 0 {
		return 0
	}
	return max(0, float64(h.timedNs)/float64(h.timed)-clockNs)
}

// tracedGen counts the generator calls of one operation.
type tracedGen struct {
	trace.Generator
	h *hot
}

func (g *tracedGen) Next() isa.Instr {
	g.h.calls++
	if !g.h.sample() {
		return g.Generator.Next()
	}
	t := time.Now()
	in := g.Generator.Next()
	g.h.timedNs += int64(time.Since(t))
	g.h.timed++
	return in
}

// tracedPred counts the predictor calls of one operation. It forwards state
// capture so checkpoints see the wrapped predictor's tables.
type tracedPred struct {
	predictor.Predictor
	h *hot
}

func (p *tracedPred) Predict(pc uint64) bool {
	p.h.calls++
	if !p.h.sample() {
		return p.Predictor.Predict(pc)
	}
	t := time.Now()
	v := p.Predictor.Predict(pc)
	p.h.timedNs += int64(time.Since(t))
	p.h.timed++
	return v
}

func (p *tracedPred) Update(pc uint64, taken bool) {
	p.h.calls++
	if !p.h.sample() {
		p.Predictor.Update(pc, taken)
		return
	}
	t := time.Now()
	p.Predictor.Update(pc, taken)
	p.h.timedNs += int64(time.Since(t))
	p.h.timed++
}

func (p *tracedPred) SaveState() ([]byte, error) {
	s, ok := p.Predictor.(predictor.Stateful)
	if !ok {
		return nil, fmt.Errorf("perfbench: %s does not support state capture", p.Name())
	}
	return s.SaveState()
}

func (p *tracedPred) LoadState(data []byte) error {
	s, ok := p.Predictor.(predictor.Stateful)
	if !ok {
		return fmt.Errorf("perfbench: %s does not support state capture", p.Name())
	}
	return s.LoadState(data)
}

// opTrace records the spans and hot-call counts of one operation. It is
// used by one goroutine at a time.
type opTrace struct {
	t     *tracer
	op    uint64
	stack []int
	arch  *archObs
	local observations
}

// beginOp opens an operation with a root span of the given name.
func (t *tracer) beginOp(name string, spec sim.RunSpec) *opTrace {
	o := &opTrace{t: t, op: t.newOp(), arch: &archObs{spec: spec}}
	o.local.arch = map[sim.Arch]*archObs{spec.Arch: o.arch}
	o.stack = append(o.stack, t.begin(o.op, 0, name))
	return o
}

// do records a span around f, nested under the innermost open span.
func (o *opTrace) do(name string, f func()) time.Duration {
	id := o.t.begin(o.op, o.stack[len(o.stack)-1], name)
	o.stack = append(o.stack, id)
	start := time.Now()
	f()
	d := time.Since(start)
	o.stack = o.stack[:len(o.stack)-1]
	o.t.end(id)
	return d
}

// finish closes the operation and folds its observations into the tracer.
func (o *opTrace) finish() {
	o.t.end(o.stack[0])
	o.t.mu.Lock()
	o.t.obs.merge(&o.local)
	o.t.mu.Unlock()
}

// tracedSpec returns a copy of spec whose predictor constructor wraps every
// predictor it builds in a call counter feeding o.
func tracedSpec(spec sim.RunSpec, o *opTrace) sim.RunSpec {
	wrap := func(inner func() predictor.Predictor) func() predictor.Predictor {
		return func() predictor.Predictor { return &tracedPred{Predictor: inner(), h: &o.local.pred} }
	}
	switch spec.Arch {
	case sim.ArchDKIP:
		cfg := spec.DKIP.WithDefaults()
		cfg.NewPredictor = wrap(cfg.NewPredictor)
		spec.DKIP = cfg
	case sim.ArchOOO:
		cfg := spec.OOO.WithDefaults()
		cfg.NewPredictor = wrap(cfg.NewPredictor)
		spec.OOO = cfg
	case sim.ArchInorder:
		cfg := spec.Inorder.WithDefaults()
		cfg.NewPredictor = wrap(cfg.NewPredictor)
		spec.Inorder = cfg
	}
	return spec
}

// cycleOf reads the engine's simulated cycle counter, which covers warmup
// as well as the measured phase.
func cycleOf(e sample.Engine) int64 {
	switch p := e.(type) {
	case *core.Processor:
		return p.Cycle
	case *ooo.Processor:
		return p.Cycle
	case *inorder.Processor:
		return p.Cycle
	}
	return 0
}

// tracedEngine records a span around every engine call sample.Run
// makes, and the counts the per-layer metrics need.
type tracedEngine struct {
	sample.Engine
	o *opTrace
}

func (e *tracedEngine) Run(g trace.Generator, warmup, measure uint64) *pipeline.Stats {
	g0, p0, c0 := e.o.local.gen.calls, e.o.local.pred.calls, cycleOf(e.Engine)
	var st *pipeline.Stats
	d := e.o.do("engine.run", func() { st = e.Engine.Run(g, warmup, measure) })
	a := e.o.arch
	a.runs++
	a.runNs += int64(d)
	a.instrs += warmup + measure
	a.cycles += cycleOf(e.Engine) - c0
	a.genInRun += e.o.local.gen.calls - g0
	a.predInRun += e.o.local.pred.calls - p0
	cnt := e.Engine.Hierarchy().Count
	for i := range cnt {
		e.o.local.memCount[i] += cnt[i]
	}
	return st
}

func (e *tracedEngine) WarmFunctional(g trace.Generator, n uint64) {
	g0 := e.o.local.gen.calls
	d := e.o.do("sample.functional", func() { e.Engine.WarmFunctional(g, n) })
	e.o.local.functionalInstrs += n
	e.o.local.functionalNs += int64(d)
	e.o.local.genInFunctional += e.o.local.gen.calls - g0
}

func (e *tracedEngine) CaptureArch(bench string, pos uint64) (*ckpt.Checkpoint, error) {
	var c *ckpt.Checkpoint
	var err error
	e.o.do("ckpt.capture", func() { c, err = e.Engine.CaptureArch(bench, pos) })
	return c, err
}

func (e *tracedEngine) RestoreArch(c *ckpt.Checkpoint) error {
	var err error
	e.o.do("ckpt.restore", func() { err = e.Engine.RestoreArch(c) })
	return err
}

// newEngine constructs the traced spec's machine inside a span.
func (o *opTrace) newEngine(spec sim.RunSpec) sample.Engine {
	var e sample.Engine
	d := o.do("engine.construct", func() { e = spec.NewEngine() })
	o.arch.constructs++
	o.arch.constructNs += int64(d)
	return &tracedEngine{Engine: e, o: o}
}
