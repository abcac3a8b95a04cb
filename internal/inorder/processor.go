package inorder

import (
	"fmt"

	"dkip/internal/engine"
	"dkip/internal/isa"
	"dkip/internal/mem"
	"dkip/internal/pipeline"
	"dkip/internal/trace"
)

// Processor is one in-order core instance: an engine.Model whose only
// architecture-specific structure is a unified blocking issue queue and an
// in-order retirement counter. Construct with New; Run simulates a
// workload.
type Processor struct {
	engine.Engine

	cfg Config
	iq  *pipeline.IssueQueue
	fus *pipeline.FUPool

	commitSeq uint64 // next sequence number to retire

	// issueStage scratch, preallocated so the per-cycle select loop does
	// not allocate.
	iqRot     [1]*pipeline.IssueQueue
	iqBlocked [1]bool
}

// New builds a processor. It panics on invalid configuration.
func New(cfg Config) *Processor {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	fqCap := cfg.FetchWidth * (cfg.FrontEndDepth + 2)
	p := &Processor{cfg: cfg, fus: pipeline.NewFUPool(cfg.FU)}
	p.Init(engine.Params{
		Family:          "inorder",
		Name:            cfg.Name,
		FetchWidth:      cfg.FetchWidth,
		RenameWidth:     cfg.RenameWidth,
		FrontEndDepth:   cfg.FrontEndDepth,
		RedirectPenalty: cfg.RedirectPenalty,
		LSQSize:         cfg.LSQSize,
		MemPorts:        cfg.MemPorts,
		MSHRs:           cfg.MSHRs,
		FetchQueueCap:   fqCap,
		WindowCap:       cfg.Window + fqCap + 64,
		Mem:             cfg.Mem,
		NewPredictor:    cfg.NewPredictor,
	}, p)
	// The in-order flag is the whole microarchitecture: Pop only ever
	// offers the oldest queued instruction, so an unready head blocks
	// issue entirely.
	p.iq = p.NewIssueQueue(pipeline.QInt, cfg.QueueSize, true, 0)
	return p
}

// Stages resets the functional-unit pool's issue ports, then runs commit,
// complete and blocking issue.
//
//dkip:hotpath
func (p *Processor) Stages(g trace.Generator) {
	p.fus.NewCycle(p.Cycle)
	p.commitStage()
	p.CompleteStage()
	p.issueStage()
}

//dkip:hotpath
func (p *Processor) commitStage() {
	for n := 0; n < p.cfg.CommitWidth; n++ {
		if p.commitSeq >= p.RenameSeq {
			return
		}
		d := p.Win.Get(p.commitSeq)
		if !d.Done {
			return
		}
		if d.In.Op == isa.Store {
			// Stores write the cache at commit behind a write buffer.
			p.Hier.Access(d.In.Addr)
			p.LSQCount--
		}
		p.commitSeq++
		p.DidWork = true
		p.Commit(d, engine.CommitDirect)
	}
}

// OnComplete releases structural entries for a finished execution.
//
//dkip:hotpath
func (p *Processor) OnComplete(d *pipeline.DynInst) {
	if d.In.Op == isa.Load {
		p.LSQCount--
		if d.MemLevel == mem.LevelMemory {
			p.MissCount--
		}
	}
	if d.In.Op.HasDest() {
		p.SB.Complete(d.In.Dest, d.Seq)
	}
}

//dkip:hotpath
func (p *Processor) issueStage() {
	p.iqRot[0] = p.iq
	p.iqBlocked[0] = false
	p.PortsUsed = 0
	p.IssueSelect(p.iqRot[:], p.iqBlocked[:], p.cfg.IssueWidth, p.fus)
}

// RenameAdmit and AllocHint bound in-flight instructions by the
// scoreboarded window (the rename/commit sequence spread — RenameSeq has
// already advanced past seq when AllocHint runs); FetchNext supplies
// instructions straight from the trace. With no QFP queue, the engine
// renames every instruction class into the unified queue.
//
//dkip:hotpath
func (p *Processor) RenameAdmit() bool { return int(p.RenameSeq-p.commitSeq) < p.cfg.Window }

//dkip:hotpath
func (p *Processor) AllocHint(seq uint64) int { return int(p.RenameSeq - p.commitSeq) }

//dkip:hotpath
func (p *Processor) FetchNext(g trace.Generator) isa.Instr { return g.Next() }

// The remaining hooks are deliberately empty: in-order recovery is a
// front-end flush (no extra penalty), and there is no per-cycle epilogue,
// no extra wake sources, and no model-owned occupancy or statistics beyond
// the engine's.
//
//dkip:hotpath
func (p *Processor) RecoveryExtra(d *pipeline.DynInst) int64 { return 0 }

//dkip:hotpath
func (p *Processor) EndCycle(g trace.Generator) {}

//dkip:hotpath
func (p *Processor) ConsiderWake(w *engine.WakeScan) {}

//dkip:hotpath
func (p *Processor) OnRename(d *pipeline.DynInst, q *pipeline.IssueQueue) {}

//dkip:hotpath
func (p *Processor) OnBeginMeasure() {}

func (p *Processor) FinishStats(st *pipeline.Stats) {}

// BudgetMessage builds the cycle-budget panic text.
func (p *Processor) BudgetMessage(bench string, target uint64) string {
	return fmt.Sprintf("inorder: %s on %s: exceeded cycle budget: committed %d of %d",
		p.cfg.Name, bench, p.Total, target)
}
