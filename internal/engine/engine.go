// Package engine is the shared cycle-driven simulation core behind every
// processor model in this repository. It owns the main loop and the stages
// that are identical across architectures — fetch (with branch prediction),
// rename (window allocation, producer links, scoreboard), wakeup/select,
// completion, commit accounting, idle-cycle skipping — plus the
// functional-warm and checkpoint capture/restore plumbing used by sampled
// simulation. Architecture models (internal/core, internal/ooo,
// internal/inorder) embed an Engine and implement Model: a configuration
// plus stage hooks contributing the machine's issue topology and structural
// hazards.
package engine

import (
	"fmt"

	"dkip/internal/isa"
	"dkip/internal/mem"
	"dkip/internal/pipeline"
	"dkip/internal/predictor"
	"dkip/internal/trace"
)

// Params is the architecture-independent slice of a model's configuration.
type Params struct {
	// Family is the model family name ("core", "ooo", "inorder"); it
	// prefixes engine panics and errors so diagnostics keep their
	// pre-unification texts.
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

	// FetchQueueCap sizes the fetch buffer; WindowCap sizes the DynInst
	// arena (models compute both from their structural resources).
	FetchQueueCap int
	WindowCap     int

	Mem          mem.Config
	NewPredictor func() predictor.Predictor
	// WithConfidence attaches a JRS confidence estimator (the D-KIP family
	// anchors checkpoints on low-confidence branches).
	WithConfidence bool
}

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

	// RenameSeq is the next sequence number to allocate.
	RenameSeq uint64
	LSQCount  int
	MissCount int // outstanding off-chip misses (MSHR occupancy)
	PortsUsed int // cache ports used this cycle

	Cycle   int64
	Collect bool
	Total   uint64
	Stats   pipeline.Stats
	DidWork bool

	model       Model
	statsBase   int64
	measureFrom uint64 // first committed instruction counted in stats
	targetTotal uint64 // last committed instruction counted in stats
	scan        WakeScan
	// pulled counts the instructions Run calls took from their generators;
	// feed is allocated by the first call and reused.
	pulled uint64
	feed   *feed
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
// has computed FetchQueueCap and WindowCap.
func (e *Engine) Init(p Params, m Model) {
	e.P = p
	e.model = m
	e.Win = pipeline.NewWindow(p.WindowCap)
	e.SB = pipeline.NewScoreboard()
	e.Hier = mem.NewHierarchy(p.Mem)
	e.BP = predictor.NewStats(p.NewPredictor())
	e.FQ = make([]FetchEntry, p.FetchQueueCap)
	if p.WithConfidence {
		e.Conf = predictor.NewConfidence(4096, 8)
	}
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
// continue the same program with warm structures.
//
// Run generates exactly the instructions it consumes. Every instruction it
// commits was pulled from a generator first, and the stream is correct-path
// only, so reaching the target pulls at least target minus what earlier Run
// calls on this engine pulled. A producer goroutine generates exactly that
// prefix ahead of the cycle loop; past it the engine calls g itself. The
// two never use g at the same time, and a panic in g is re-raised here with
// the same value.
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
	if warmup == 0 {
		e.beginMeasure()
	}
	f := e.supply(g, target-min(target, e.pulled))
	defer f.abort()
	maxCycles := e.Cycle + int64(warmup+measure)*budgetPerInstr + budgetFloor
	for e.Total < target {
		e.DidWork = false
		e.model.BeginCycle()
		e.model.Stages(f)
		e.renameStage()
		e.fetchStage(f)
		e.model.EndCycle(f)
		e.AdvanceCycle()
		if e.Cycle > maxCycles {
			f.abort()
			panic(e.model.BudgetMessage(g.Name(), target))
		}
	}
	e.pulled += f.finish()
	out := e.Stats
	out.Cycles = e.Cycle - e.statsBase
	e.model.FinishStats(&out)
	return &out
}

//dkip:hotpath
func (e *Engine) beginMeasure() {
	e.Stats = pipeline.Stats{}
	e.statsBase = e.Cycle
	e.Collect = true
	e.model.OnBeginMeasure()
}

// Commit retires one instruction for accounting purposes. Statistics cover
// exactly the (warmup, warmup+measure] commit range, however commits batch
// within cycles.
//
//dkip:hotpath
func (e *Engine) Commit(d *pipeline.DynInst, path CommitPath) {
	e.Total++
	if !e.Collect {
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

// CompleteStage retires finished executions: applies model completion
// bookkeeping, wakes consumers, and resolves branches. Models call it from
// Stages at their completion point.
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
		e.model.OnComplete(d)
		for _, cs := range d.Consumers {
			ce := e.Win.Get(cs)
			if ce.Seq != cs || ce.Issued {
				continue
			}
			ce.Pending--
			if ce.Pending == 0 {
				e.model.Wake(ce)
			}
		}
		if d.Mispred {
			pen := int64(e.P.RedirectPenalty) + e.model.RecoveryExtra(d)
			e.FetchStalled = false
			e.ResumeCycle = e.Cycle + pen
		}
		e.DidWork = true
	}
}

// MayIssueLoad checks the structural limits for a load about to issue: a
// free cache port, and — when MSHRs are modeled — a free miss register if
// the access would go off-chip.
//
//dkip:hotpath
func (e *Engine) MayIssueLoad(d *pipeline.DynInst) bool {
	if e.PortsUsed >= e.P.MemPorts {
		return false
	}
	if e.P.MSHRs > 0 && e.MissCount >= e.P.MSHRs && e.Hier.ProbeLongLatency(d.In.Addr) {
		return false
	}
	return true
}

// Execute starts execution of d at the current cycle.
//
//dkip:hotpath
func (e *Engine) Execute(d *pipeline.DynInst) {
	d.Issued = true
	d.IssueCycle = e.Cycle
	if e.Collect {
		e.Stats.IssueLat.Observe(e.Cycle - d.RenameCycle)
	}
	lat := int64(d.In.Op.Latency())
	if d.In.Op == isa.Load {
		l, lvl := e.Hier.Access(d.In.Addr)
		d.MemLevel = lvl
		d.MemLatency = l
		if e.Collect {
			e.Stats.LoadLevel[lvl]++
		}
		if lvl == mem.LevelMemory {
			e.MissCount++
		}
		lat = int64(l)
		e.PortsUsed++
	}
	lat += e.model.IssueExtraLatency(d)
	e.EV.Schedule(e.Cycle+lat, d.Seq)
	e.DidWork = true
}

// IssueSelect performs wakeup/select over a rotated queue view: up to width
// instructions issue, round-robin across queues, each queue blocking at its
// first structurally stalled head. The queues and blocked slices must be
// caller-preallocated scratch (this runs every cycle and must not
// allocate); blocked must arrive zeroed. Returns the number issued.
//
//dkip:hotpath
func (e *Engine) IssueSelect(queues []*pipeline.IssueQueue, blocked []bool, width int, fu *pipeline.FUPool) int {
	issued := 0
	for issued < width {
		progress := false
		for qi, q := range queues {
			if blocked[qi] || issued >= width {
				continue
			}
			seq, ok := q.Pop()
			if !ok {
				blocked[qi] = true
				continue
			}
			d := e.Win.Get(seq)
			if d.In.Op == isa.Load && !e.MayIssueLoad(d) {
				q.Unpop(seq)
				blocked[qi] = true
				continue
			}
			if !fu.TryIssue(d.In.Op) {
				q.Unpop(seq)
				blocked[qi] = true
				continue
			}
			e.Execute(d)
			issued++
			progress = true
		}
		if !progress {
			break
		}
	}
	return issued
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
			if e.Collect {
				e.Stats.StallROBFull++
			}
			return
		}
		fp := fe.In.Op.IsFP() || (fe.In.Op == isa.Load && fe.In.Dest.IsFP())
		q := e.model.RenameQueue(fp)
		if q.Full() {
			if e.Collect {
				e.Stats.StallIQFull++
			}
			return
		}
		if fe.In.Op.IsMem() && e.LSQCount >= e.P.LSQSize {
			if e.Collect {
				e.Stats.StallLSQFull++
			}
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
		in := e.model.FetchNext(g)
		if e.Collect {
			e.Stats.Fetched++
		}
		fe := FetchEntry{In: in, FetchCycle: e.Cycle, Ready: e.Cycle + int64(e.P.FrontEndDepth)}
		if in.Op == isa.Branch {
			pred := e.BP.Predict(in.PC)
			e.BP.Update(in.PC, in.Taken)
			fe.Mispred = pred != in.Taken
			fe.LowConf = e.model.OnFetchBranch(in, fe.Mispred)
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
