// Package engine is the shared cycle-driven simulation core behind every
// processor model in this repository. It owns the main loop and every step
// that is identical across architectures:
//
//   - fetch, with branch prediction, and the fetch queue's sizing;
//   - rename: window allocation, producer links and the scoreboard;
//   - one wakeup/select loop for every issue queue, rotating queue priority
//     by cycle, and the cache ports it arbitrates;
//   - completion: load/store-queue and miss-register release, scoreboard
//     completion, consumer wakeup and branch redirects, counting slow-path
//     recoveries;
//   - retirement: stores write the cache and free their load/store-queue
//     entry, and commits are counted into the statistics window;
//   - the liveness horizon, idle-cycle skipping and the cycle budget;
//   - the functional-warm and checkpoint capture/restore plumbing used by
//     sampled simulation.
//
// Architecture models (internal/core, internal/ooo) embed an Engine and
// implement Model: a configuration plus stage hooks contributing the
// machine's issue topology and structural hazards. internal/inorder is a
// configuration of internal/ooo. All three configurations implement Config,
// whose Params each constructor initializes its Engine from.
package engine

import (
	"fmt"
	"reflect"

	"dkip/internal/isa"
	"dkip/internal/mem"
	"dkip/internal/pipeline"
	"dkip/internal/predictor"
	"dkip/internal/trace"
)

// Config is the contract every model's configuration implements
// (core.Config, ooo.Config and inorder.Config), through which the
// orchestration layer defaults, validates, sizes and keys a machine without
// knowing its type. Validate, Params and InFlight read the configuration as
// given, so callers apply Defaults first.
type Config interface {
	// Defaults returns the configuration with every zero field, the memory
	// configuration's included, replaced by its default.
	Defaults() Config
	// Validate reports configuration errors, the memory hierarchy's
	// included.
	Validate() error
	// Params returns the engine parameters the model's constructor
	// initializes its engine from.
	Params() Params
	// InFlight returns the machine's in-flight instruction capacity, which
	// scales a sampled run's per-interval detailed warmup.
	InFlight() uint64
}

// Params is the architecture-independent slice of a model's configuration.
type Params struct {
	// Family is the model family name, "core" or "ooo" (the in-order core
	// is an ooo configuration). It prefixes engine panics and errors, and
	// architectural-checkpoint keys: checkpoints of one family have one
	// structure (the D-KIP's carry a confidence-estimator section the
	// others lack), and the memory and predictor configurations are keyed
	// beside it.
	Family string
	// Name is the configuration's display name.
	Name string

	FetchWidth    int
	RenameWidth   int
	FrontEndDepth int
	// RedirectPenalty is the base front-end redirect cost of a resolved
	// misprediction; models add recovery surcharges via RecoveryExtra.
	RedirectPenalty int

	LSQSize  int
	MemPorts int
	MSHRs    int

	// WindowCap sizes the DynInst arena beyond the fetch queue, from the
	// model's structural resources; the engine adds the fetch queue's
	// FetchWidth × (FrontEndDepth + 2) entries.
	WindowCap int
	// RunaheadDepth bounds how many instructions the model keeps pulled
	// ahead of fetch (Engine.PullAhead); zero for a model that pulls none.
	RunaheadDepth int

	Mem          mem.Config
	NewPredictor func() predictor.Predictor
	// WithConfidence attaches a JRS confidence estimator (the D-KIP family
	// anchors checkpoints on low-confidence branches).
	WithConfidence bool
}

// CheckNonNegative returns an error naming the first integer field of cfg, a
// model's configuration struct, that holds a negative value. It looks into
// nested structs, such as the functional-unit complements, but not into the
// memory configuration, which mem.Config.Validate checks. Zero means
// "default" or "off" in every model's configuration, and no integer field
// has a meaning below it: a negative width or queue size would reach a
// constructor and panic there.
func CheckNonNegative(cfg any) error {
	return checkNonNegative(reflect.ValueOf(cfg), "")
}

var memConfigType = reflect.TypeOf(mem.Config{})

func checkNonNegative(v reflect.Value, prefix string) error {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		if f.CanInt() && f.Int() < 0 {
			return fmt.Errorf("%s %d must not be negative", name, f.Int())
		}
		if f.Kind() == reflect.Struct && f.Type() != memConfigType {
			if err := checkNonNegative(f, name+"."); err != nil {
				return err
			}
		}
	}
	return nil
}

// MaxArena bounds the instructions one engine holds at once: its window
// arena's minimum size (Params.WindowCap plus the fetch queue) plus its
// runahead depth. A window entry, a DynInst with its four preallocated
// consumer slots, takes 168 bytes, and the arena rounds up to a power of
// two of at most MaxArena entries, so the limit allows a window of 336 MiB,
// and a fetch queue (56 bytes an entry) and runahead buffer (32 bytes an
// instruction) of 112 MiB more. The largest arenas the repository builds,
// KILO-1024's and the D-KIP's with 4,096-entry LLIBs, hold 16,384 entries.
const MaxArena = 1 << 21

// CheckArena returns an error when an engine of cfg would hold more than
// MaxArena instructions. fields name cfg's integer fields that its Params
// sums into WindowCap; each is bounded on its own first, and so are the
// Params fields the fetch queue and the runahead buffer grow with, before
// any sum or product is formed, so none can wrap.
func CheckArena(cfg Config, fields ...string) error {
	v := reflect.ValueOf(cfg)
	for _, name := range fields {
		if err := checkSize(name, v.FieldByName(name).Int()); err != nil {
			return err
		}
	}
	p := cfg.Params()
	for _, f := range [...]struct {
		name string
		n    int
	}{{"FetchWidth", p.FetchWidth}, {"FrontEndDepth", p.FrontEndDepth}, {"RunaheadDepth", p.RunaheadDepth}} {
		if err := checkSize(f.name, int64(f.n)); err != nil {
			return err
		}
	}
	fq := p.fetchQueueLen()
	if n := p.WindowCap + fq + p.RunaheadDepth; n > MaxArena {
		return fmt.Errorf("an arena of %d instructions (window %d, fetch queue %d, runahead %d) is over the limit of %d (engine.MaxArena)",
			n, p.WindowCap, fq, p.RunaheadDepth, MaxArena)
	}
	return nil
}

func checkSize(name string, n int64) error {
	if n > MaxArena {
		return fmt.Errorf("%s %d is over the limit of %d (engine.MaxArena)", name, n, MaxArena)
	}
	return nil
}

// fetchQueueLen is the fetch queue's size: FetchWidth × (FrontEndDepth + 2).
func (p Params) fetchQueueLen() int { return p.FetchWidth * (p.FrontEndDepth + 2) }

// FetchEntry is one instruction buffered between fetch and rename.
type FetchEntry struct {
	In         isa.Instr
	FetchCycle int64
	Ready      int64 // cycle at which rename may consume it
	Mispred    bool
	LowConf    bool
}

// WakeScan accumulates the next cycle at which an idle machine can make
// progress. It is a reusable engine field, not a closure, so the idle scan
// stays allocation-free.
type WakeScan struct {
	cycle int64
	next  int64
}

// Consider offers one candidate wake cycle.
//
//dkip:hotpath
func (w *WakeScan) Consider(c int64) {
	if c <= w.cycle {
		w.next = w.cycle
	} else if w.next == -1 || c < w.next {
		w.next = c
	}
}

// Engine is the shared simulation state. Fields are exported for the models
// that embed it (and their white-box tests); external packages should treat
// them as read-only.
type Engine struct {
	P Params

	Win  *pipeline.Window
	SB   *pipeline.Scoreboard
	EV   pipeline.EventQueue
	Hier *mem.Hierarchy
	BP   *predictor.Stats
	// Conf is the branch confidence estimator, or nil when the family has
	// none.
	Conf *predictor.Confidence

	// Front end.
	FQ           []FetchEntry
	FQHead       int
	FQLen        int
	FetchStalled bool
	ResumeCycle  int64

	// RenameSeq is the next sequence number to allocate. Horizon is the
	// oldest possibly incomplete window entry, as far as AdvanceHorizon
	// last walked.
	RenameSeq uint64
	Horizon   uint64
	// LSQCount, MissCount (outstanding off-chip misses: MSHR occupancy) and
	// PortsUsed (cache ports used this cycle) are written only by the
	// engine: rename and issue allocate, completion and retirement free.
	LSQCount  int
	MissCount int
	PortsUsed int

	Cycle int64
	Total uint64
	// Stats counts unconditionally; the measurement window zeroes it when
	// it opens, so a run reports only the window's events.
	Stats   pipeline.Stats
	DidWork bool

	model Model
	// measuring is set once the current Run's measurement window opened.
	measuring bool
	// queues files each issue queue built through NewIssueQueue under its
	// QueueID (QMPFP is the last one), and issueDelay the extra latency
	// charged to instructions issued from it.
	queues      [pipeline.QMPFP + 1]*pipeline.IssueQueue
	issueDelay  [pipeline.QMPFP + 1]int64
	statsBase   int64
	measureFrom uint64 // first committed instruction counted in stats
	targetTotal uint64 // last committed instruction counted in stats
	scan        WakeScan
	// pulled counts the instructions Run calls took from their generators;
	// feed is allocated by the first call and reused.
	pulled uint64
	feed   *feed
	// ahead holds the instructions PullAhead took from the generator before
	// fetch reached them; fetch delivers ahead[aheadPos:] before it calls
	// the generator again.
	ahead    []isa.Instr
	aheadPos int
}

// MaxRunInstrs bounds warmup+measure for one Run call. Below it the cycle
// budget, budgetPerInstr cycles per instruction on top of the current
// cycle, stays far inside int64, and neither the phase sum nor the feed's
// prefix length can wrap.
const MaxRunInstrs = 1 << 40

// Run's cycle budget: a run that has not committed its instructions within
// budgetFloor + budgetPerInstr cycles per instruction is deadlocked or
// pathologically configured.
const (
	budgetPerInstr = 20000
	budgetFloor    = 10_000_000
)

// Init wires the engine's shared structures from p and binds the model. It
// must be called exactly once, by the model's constructor, after the model
// has computed WindowCap.
func (e *Engine) Init(p Params, m Model) {
	e.P = p
	e.model = m
	e.FQ = make([]FetchEntry, p.fetchQueueLen())
	e.Win = pipeline.NewWindow(p.WindowCap + len(e.FQ))
	e.SB = pipeline.NewScoreboard()
	e.Hier = mem.NewHierarchy(p.Mem)
	e.BP = predictor.NewStats(p.NewPredictor())
	if p.WithConfidence {
		e.Conf = predictor.NewConfidence(4096, 8)
	}
}

// NewIssueQueue builds an issue queue over the engine's window and files it
// under id. Rename sends FP-class instructions to the QFP queue (to QInt
// when the model built none) and every other instruction to QInt; a woken
// instruction is handed to the queue its Queue field names; and an
// instruction issued from the queue executes delay cycles later than its
// operation's latency. Models call it once per queue, after Init.
func (e *Engine) NewIssueQueue(id pipeline.QueueID, capacity int, inOrder bool, delay int) *pipeline.IssueQueue {
	q := pipeline.NewIssueQueue(id, capacity, inOrder, e.Win)
	e.queues[id] = q
	e.issueDelay[id] = int64(delay)
	return q
}

// Hierarchy exposes the memory hierarchy (cache statistics).
func (e *Engine) Hierarchy() *mem.Hierarchy { return e.Hier }

// Predictor exposes branch predictor statistics.
func (e *Engine) Predictor() *predictor.Stats { return e.BP }

// Confidence returns the branch confidence estimator, or nil when the
// family has none. The sampling driver's functional-warm cursor uses it.
func (e *Engine) Confidence() *predictor.Confidence { return e.Conf }

// Run simulates until warmup+measure instructions have committed and
// returns statistics covering only the measurement phase. The generator
// supplies the correct-path instruction stream. Run may be called again to
// continue the same program with warm structures; each call opens its own
// measurement window after its own warmup.
//
// Run generates exactly the instructions it consumes. Every instruction it
// commits was pulled from a generator first, and the stream is correct-path
// only, so reaching the target pulls at least target minus what earlier Run
// calls on this engine pulled. A producer goroutine generates exactly that
// prefix ahead of the cycle loop; past it the engine calls g itself. The
// two never use g at the same time, and a panic in g is re-raised here with
// the same value. Past its target Run pulls at most Lookahead instructions.
//
//dkip:hotpath
func (e *Engine) Run(g trace.Generator, warmup, measure uint64) *pipeline.Stats {
	if measure == 0 {
		panic(e.P.Family + ": Run with zero measurement length")
	}
	if warmup > MaxRunInstrs || measure > MaxRunInstrs-warmup {
		panic(fmt.Sprintf("%s: Run of %d+%d instructions exceeds MaxRunInstrs (%d)", e.P.Family, warmup, measure, uint64(MaxRunInstrs)))
	}
	target := e.Total + warmup + measure
	e.measureFrom = e.Total + warmup
	e.targetTotal = target
	e.measuring = false
	if warmup == 0 {
		e.beginMeasure()
	}
	f := e.supply(g, target-min(target, e.pulled))
	defer f.abort()
	maxCycles := e.Cycle + int64(warmup+measure)*budgetPerInstr + budgetFloor
	for e.Total < target {
		e.DidWork = false
		e.PortsUsed = 0
		e.model.Stages(f)
		e.renameStage()
		e.fetchStage(f)
		e.model.EndCycle(f)
		e.AdvanceCycle()
		if e.Cycle > maxCycles {
			f.abort()
			panic(fmt.Sprintf("%s: %s on %s: exceeded cycle budget (deadlock or pathological config): committed %d of %d",
				e.P.Family, e.P.Name, g.Name(), e.Total, target))
		}
	}
	e.pulled += f.finish()
	if over := e.pulled - target; over > e.Lookahead() {
		panic(fmt.Sprintf("%s: %s on %s: Run pulled %d instructions past its target, over its Lookahead of %d",
			e.P.Family, e.P.Name, g.Name(), over, e.Lookahead()))
	}
	out := e.Stats
	out.Cycles = e.Cycle - e.statsBase
	e.model.FinishStats(&out)
	return &out
}

// Lookahead returns how many instructions past warmup+measure one Run call
// can pull from its generator: when the last of them commits, every
// instruction pulled and not committed sits in the window arena, the fetch
// queue or the pulled-ahead buffer, which runahead keeps within
// RunaheadDepth. Run panics if it pulls more. A sampled run keeps a
// detailed interval's read-ahead up to this bound (internal/sample).
func (e *Engine) Lookahead() uint64 {
	return uint64(e.Win.Capacity() + len(e.FQ) + e.P.RunaheadDepth)
}

//dkip:hotpath
func (e *Engine) beginMeasure() {
	e.Stats = pipeline.Stats{}
	e.statsBase = e.Cycle
	e.measuring = true
	e.model.OnBeginMeasure()
}

// Commit retires one instruction: a store writes the cache (a write buffer
// hides the latency, so only cache state changes) and frees its load/store
// queue entry, and the commit is counted. Statistics cover exactly the
// (warmup, warmup+measure] commit range, however commits batch within
// cycles.
//
//dkip:hotpath
func (e *Engine) Commit(d *pipeline.DynInst, path CommitPath) {
	if d.In.Op == isa.Store {
		e.Hier.Access(d.In.Addr)
		e.LSQCount--
	}
	e.Total++
	if !e.measuring {
		if e.Total <= e.measureFrom {
			return
		}
		e.beginMeasure()
	}
	if e.Total > e.targetTotal {
		return
	}
	e.Stats.Committed++
	switch path {
	case CommitCP:
		e.Stats.CPCommitted++
	case CommitMP:
		e.Stats.MPCommitted++
	}
	if d.In.Op == isa.Branch {
		e.Stats.Branches++
		if d.Mispred {
			e.Stats.Mispredicts++
		}
	}
}

// AdvanceCycle steps time, skipping idle stretches when nothing can change
// until the next scheduled event.
//
//dkip:hotpath
func (e *Engine) AdvanceCycle() {
	e.Cycle++
	if e.DidWork {
		return
	}
	// Nothing happened: jump to the next cycle at which something can.
	e.scan.cycle = e.Cycle
	e.scan.next = -1
	if c, ok := e.EV.NextCycle(); ok {
		e.scan.Consider(c)
	}
	if !e.FetchStalled && e.ResumeCycle > e.Cycle {
		e.scan.Consider(e.ResumeCycle)
	}
	if e.FQLen > 0 {
		e.scan.Consider(e.FQ[e.FQHead].Ready)
	}
	e.model.ConsiderWake(&e.scan)
	if e.scan.next > e.Cycle {
		e.Cycle = e.scan.next
	} else if e.scan.next == -1 && e.FQLen == 0 && e.FetchStalled {
		panic(e.P.Family + ": deadlock: fetch stalled with no pending events")
	}
}

// CompleteStage finishes the executions due this cycle. A load frees its
// load/store-queue entry, and its miss register when it went off-chip, as
// its value returns; the model's OnComplete runs; the destination register
// completes in the scoreboard; consumers wake; and a mispredicted branch
// redirects fetch. A branch resolved on the slow path (d.LowLocality) is a
// recovery: it is counted, and the model's RecoveryExtra adds its cost.
// Models call CompleteStage from Stages at their completion point.
//
//dkip:hotpath
func (e *Engine) CompleteStage() {
	for {
		seq, ok := e.EV.PopDue(e.Cycle)
		if !ok {
			return
		}
		d := e.Win.Get(seq)
		d.Done = true
		d.CompleteCycle = e.Cycle
		if d.In.Op == isa.Load {
			e.LSQCount--
			if d.MemLevel == mem.LevelMemory {
				e.MissCount--
			}
		}
		e.model.OnComplete(d)
		if d.In.Op.HasDest() {
			e.SB.Complete(d.In.Dest, d.Seq)
		}
		for _, cs := range d.Consumers {
			ce := e.Win.Get(cs)
			if ce.Seq != cs || ce.Issued {
				continue
			}
			ce.Pending--
			if ce.Pending == 0 && e.queues[ce.Queue] != nil {
				e.queues[ce.Queue].Wake(cs)
			}
		}
		if d.Mispred {
			pen := int64(e.P.RedirectPenalty)
			if d.LowLocality {
				e.Stats.Recoveries++
				pen += e.model.RecoveryExtra(d)
			}
			e.FetchStalled = false
			e.ResumeCycle = e.Cycle + pen
		}
		e.DidWork = true
	}
}

// AdvanceHorizon slides Horizon past completed entries, and slots already
// recycled, up to limit, so the window can recycle them.
//
//dkip:hotpath
func (e *Engine) AdvanceHorizon(limit uint64) {
	for e.Horizon < limit {
		d := e.Win.Get(e.Horizon)
		if d.Seq == e.Horizon && !d.Done {
			return
		}
		e.Horizon++
	}
}

// mayIssueLoad checks the structural limits for a load about to issue: a
// free cache port, and — when MSHRs are modeled — a free miss register if
// the access would go off-chip.
//
//dkip:hotpath
func (e *Engine) mayIssueLoad(d *pipeline.DynInst) bool {
	if e.PortsUsed >= e.P.MemPorts {
		return false
	}
	if e.P.MSHRs > 0 && e.MissCount >= e.P.MSHRs && e.Hier.ProbeLongLatency(d.In.Addr) {
		return false
	}
	return true
}

// execute starts execution of d at the current cycle.
//
//dkip:hotpath
func (e *Engine) execute(d *pipeline.DynInst) {
	d.Issued = true
	d.IssueCycle = e.Cycle
	e.Stats.IssueLat.Observe(e.Cycle - d.RenameCycle)
	lat := int64(d.In.Op.Latency())
	if d.In.Op == isa.Load {
		l, lvl := e.Hier.Access(d.In.Addr)
		d.MemLevel = lvl
		d.MemLatency = l
		e.Stats.LoadLevel[lvl]++
		if lvl == mem.LevelMemory {
			e.MissCount++
		}
		lat = int64(l)
		e.PortsUsed++
	}
	e.EV.Schedule(e.Cycle+lat+e.issueDelay[d.Queue], d.Seq)
	e.DidWork = true
}

// IssueSelect performs wakeup/select over queues, the model's fixed queue
// set for one scheduler: up to width instructions issue, round-robin across
// the queues, each queue blocking at its first structurally stalled head.
// Priority rotates by cycle, so no queue starves under issue-width pressure:
// on cycle c the visit starts at queues[c mod len(queues)].
//
//dkip:hotpath
func (e *Engine) IssueSelect(width int, fu *pipeline.FUPool, queues ...*pipeline.IssueQueue) {
	n := len(queues)
	start := 0
	if n == 2 {
		start = int(e.Cycle & 1)
	} else if n > 2 {
		start = int(e.Cycle % int64(n))
	}
	var blocked uint32 // bit i: queues[i] is blocked for the rest of the cycle
	issued := 0
	for issued < width {
		progress := false
		for k := 0; k < n && issued < width; k++ {
			i := start + k
			if i >= n {
				i -= n
			}
			if blocked&(1<<i) != 0 {
				continue
			}
			q := queues[i]
			seq, ok := q.Pop()
			if !ok {
				blocked |= 1 << i
				continue
			}
			d := e.Win.Get(seq)
			if (d.In.Op == isa.Load && !e.mayIssueLoad(d)) || !fu.TryIssue(d.In.Op) {
				q.Unpop(seq)
				blocked |= 1 << i
				continue
			}
			e.execute(d)
			issued++
			progress = true
		}
		if !progress {
			return
		}
	}
}

// renameStage maps fetched instructions into the model's window structures
// and issue queues, recording producer links.
//
//dkip:hotpath
func (e *Engine) renameStage() {
	for n := 0; n < e.P.RenameWidth; n++ {
		if e.FQLen == 0 {
			return
		}
		fe := &e.FQ[e.FQHead]
		if fe.Ready > e.Cycle {
			return
		}
		if !e.model.RenameAdmit() {
			e.Stats.StallROBFull++
			return
		}
		q := e.queues[pipeline.QInt]
		fp := fe.In.Op.IsFP() || (fe.In.Op == isa.Load && fe.In.Dest.IsFP())
		if fp && e.queues[pipeline.QFP] != nil {
			q = e.queues[pipeline.QFP]
		}
		if q.Full() {
			e.Stats.StallIQFull++
			return
		}
		if fe.In.Op.IsMem() && e.LSQCount >= e.P.LSQSize {
			e.Stats.StallLSQFull++
			return
		}

		seq := e.RenameSeq
		e.RenameSeq++
		d := e.Win.Alloc(seq, fe.In, e.model.AllocHint(seq))
		d.FetchCycle = fe.FetchCycle
		d.RenameCycle = e.Cycle
		d.Mispred = fe.Mispred
		d.LowConf = fe.LowConf

		pending := 0
		prods := [2]uint64{pipeline.NoProducer, pipeline.NoProducer}
		for i, src := range [2]isa.Reg{fe.In.Src1, fe.In.Src2} {
			if prod, busy := e.SB.Lookup(src); busy {
				pe := e.Win.Get(prod)
				//dkip:alloc-ok consumer lists are pre-capped by Window.Alloc; growth is warmup-only
				pe.Consumers = append(pe.Consumers, seq)
				prods[i] = prod
				pending++
			}
		}
		d.Pending = int8(pending)
		d.Prod1, d.Prod2 = prods[0], prods[1]
		if d.In.Dest.Valid() {
			e.SB.Define(d.In.Dest, seq)
		}
		q.Insert(seq, pending == 0)
		e.model.OnRename(d, q)
		if fe.In.Op.IsMem() {
			e.LSQCount++
		}

		e.FQHead++
		if e.FQHead == len(e.FQ) {
			e.FQHead = 0
		}
		e.FQLen--
		e.DidWork = true
	}
}

// fetchStage supplies instructions from the trace, predicting branches. A
// detected misprediction halts correct-path supply until the branch
// resolves.
//
//dkip:hotpath
func (e *Engine) fetchStage(g trace.Generator) {
	if e.FetchStalled || e.Cycle < e.ResumeCycle {
		return
	}
	for n := 0; n < e.P.FetchWidth; n++ {
		if e.FQLen == len(e.FQ) {
			return
		}
		in := e.nextFetch(g)
		e.Stats.Fetched++
		fe := FetchEntry{In: in, FetchCycle: e.Cycle, Ready: e.Cycle + int64(e.P.FrontEndDepth)}
		if in.Op == isa.Branch {
			pred := e.BP.Predict(in.PC)
			e.BP.Update(in.PC, in.Taken)
			fe.Mispred = pred != in.Taken
			if e.Conf != nil {
				fe.LowConf = !e.Conf.High(in.PC)
				e.Conf.Update(in.PC, !fe.Mispred)
			}
		}
		tail := e.FQHead + e.FQLen
		if tail >= len(e.FQ) {
			tail -= len(e.FQ)
		}
		e.FQ[tail] = fe
		e.FQLen++
		e.DidWork = true
		if fe.Mispred {
			// Wrong-path fetch begins; no correct-path instructions
			// arrive until the branch resolves.
			e.FetchStalled = true
			return
		}
		if in.Op == isa.Branch && in.Taken {
			return // a taken branch ends the fetch group
		}
	}
}

// nextFetch returns the next instruction of the stream for fetch: the oldest
// one pulled ahead, else the generator's next.
//
//dkip:hotpath
func (e *Engine) nextFetch(g trace.Generator) isa.Instr {
	if e.aheadPos == len(e.ahead) {
		return g.Next()
	}
	in := e.ahead[e.aheadPos]
	e.aheadPos++
	if e.aheadPos == len(e.ahead) {
		e.ahead, e.aheadPos = e.ahead[:0], 0
	}
	return in
}

// PullAhead takes the next instruction of the stream from g before fetch
// reaches it, as runahead's scan does, and keeps it for fetch: the
// architectural stream fetch delivers is unchanged.
//
//dkip:hotpath
func (e *Engine) PullAhead(g trace.Generator) isa.Instr {
	in := g.Next()
	//dkip:alloc-ok the buffer grows to the deepest pull once, then recycles
	e.ahead = append(e.ahead, in)
	return in
}

// PulledAhead returns the instructions pulled ahead that fetch has not yet
// taken, oldest first. The slice is valid until the next fetch or PullAhead.
//
//dkip:hotpath
func (e *Engine) PulledAhead() []isa.Instr { return e.ahead[e.aheadPos:] }
