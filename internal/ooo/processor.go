package ooo

import (
	"dkip/internal/engine"
	"dkip/internal/pipeline"
	"dkip/internal/trace"
)

// Processor is one out-of-order core instance: an engine.Model contributing
// the R10000-style ROB, clustered issue queues, and (for the KILO baseline)
// the Slow Lane Instruction Queue. It is single-use: construct with New or
// NewUnified, call Run once (Run may be called again to continue the same
// program with warm structures).
type Processor struct {
	engine.Engine

	cfg Config

	iqI  *pipeline.IssueQueue
	iqF  *pipeline.IssueQueue // nil on a unified-queue machine
	sliq *pipeline.IssueQueue // nil unless cfg.SLIQSize > 0
	fus  *pipeline.FUPool
	// iqAll is the queue set the select loop rotates over.
	iqAll []*pipeline.IssueQueue

	commitSeq uint64 // next sequence number to retire
	robCount  int

	// ageI/ageF feed SLIQ migration: sequence numbers in rename order.
	ageI, ageF pipeline.Ring64

	ra runaheadState
}

// New builds a processor with the R10K's clustered issue queues, one for
// integer and one for FP work, of IQSize entries each. It panics on invalid
// configuration (experiment definitions are code).
func New(cfg Config) *Processor { return build(cfg, true) }

// NewUnified builds a processor whose single issue queue of IQSize entries
// takes every instruction class: with no FP queue, the engine renames FP
// work into the integer one. With InOrder set it is a blocking in-order
// core, as package inorder configures it. It panics on invalid
// configuration.
func NewUnified(cfg Config) *Processor { return build(cfg, false) }

func build(cfg Config, clustered bool) *Processor {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Processor{
		cfg: cfg,
		fus: pipeline.NewFUPool(cfg.FU),
	}
	p.Init(cfg.Params(), p)
	p.iqI = p.NewIssueQueue(pipeline.QInt, cfg.IQSize, cfg.InOrder, 0)
	p.iqAll = []*pipeline.IssueQueue{p.iqI}
	if clustered {
		p.iqF = p.NewIssueQueue(pipeline.QFP, cfg.IQSize, cfg.InOrder, 0)
		p.iqAll = append(p.iqAll, p.iqF)
	}
	if cfg.SLIQSize > 0 {
		// Woken slow-lane instructions re-dispatch through the pipeline
		// front before executing.
		p.sliq = p.NewIssueQueue(pipeline.QSLIQ, cfg.SLIQSize, false, cfg.SLIQReinsertDelay)
		p.iqAll = append(p.iqAll, p.sliq)
	}
	return p
}

// Stages resets the functional-unit pool's issue ports, then runs commit,
// complete and issue in the R10K order. SLIQ migration follows issue, so
// newly ready instructions had their chance to leave the primary queues
// first.
//
//dkip:hotpath
func (p *Processor) Stages(g trace.Generator) {
	p.fus.NewCycle(p.Cycle)
	p.commitStage()
	p.CompleteStage()
	p.IssueSelect(p.cfg.IssueWidth, p.fus, p.iqAll...)
	if p.sliq != nil {
		p.migrateToSLIQ()
	}
}

// EndCycle triggers a runahead episode when configured.
//
//dkip:hotpath
func (p *Processor) EndCycle(g trace.Generator) {
	if p.cfg.RunaheadDepth > 0 {
		p.maybeRunahead(g)
	}
}

// ConsiderWake adds no wake sources beyond the engine's defaults.
//
//dkip:hotpath
func (p *Processor) ConsiderWake(w *engine.WakeScan) {}

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
		if p.cfg.SLIQSize == 0 {
			p.robCount--
		}
		p.commitSeq++
		p.DidWork = true
		p.Commit(d, engine.CommitDirect)
	}
}

// OnComplete releases a finished instruction's pseudo-ROB entry under
// out-of-order commit (multicheckpointing); SLIQ residents released theirs
// when they migrated.
//
//dkip:hotpath
func (p *Processor) OnComplete(d *pipeline.DynInst) {
	if p.cfg.SLIQSize > 0 && !d.LowLocality {
		p.robCount--
	}
}

// RecoveryExtra charges the checkpoint-restore surcharge for a
// misprediction resolved from the SLIQ: recovery restores a checkpoint
// rather than the rename stack.
//
//dkip:hotpath
func (p *Processor) RecoveryExtra(d *pipeline.DynInst) int64 {
	return int64(p.cfg.CheckpointPenalty)
}

// migrateToSLIQ moves instructions that have waited SLIQTimer cycles in a
// primary queue without becoming ready into the Slow Lane Instruction Queue,
// releasing their pseudo-ROB entries (multicheckpointing covers recovery).
//
//dkip:hotpath
func (p *Processor) migrateToSLIQ() {
	deadline := p.Cycle - int64(p.cfg.SLIQTimer)
	for _, age := range [2]*pipeline.Ring64{&p.ageI, &p.ageF} {
		for age.Len() > 0 {
			seq := age.Front()
			e := p.Win.Get(seq)
			if e.Seq != seq || e.Issued {
				age.PopFront()
				continue
			}
			if e.RenameCycle > deadline {
				break // youngest entries not old enough yet
			}
			if e.Pending == 0 {
				// Ready but waiting on select; it will issue soon.
				age.PopFront()
				continue
			}
			if p.sliq.Full() {
				return
			}
			if e.Queue == pipeline.QInt {
				p.iqI.RemoveWaiting()
			} else {
				p.iqF.RemoveWaiting()
			}
			e.LowLocality = true
			p.sliq.Insert(seq, false) // re-stamps e.Queue

			p.robCount--
			age.PopFront()
			p.DidWork = true
		}
	}
}

// RenameAdmit enforces the ROB and virtual-window occupancy bounds.
//
//dkip:hotpath
func (p *Processor) RenameAdmit() bool {
	if p.robCount >= p.cfg.ROBSize {
		return false
	}
	if int(p.RenameSeq-p.commitSeq) >= p.Win.Capacity()-8 {
		// Out-of-order commit mode: the in-order retirement counter has
		// fallen too far behind to recycle slots.
		return false
	}
	if p.cfg.SLIQSize > 0 {
		// The virtual window is bounded by the checkpoint and
		// physical-register budget: at most pseudo-ROB + SLIQ
		// instructions may separate the oldest incomplete instruction
		// from rename.
		p.AdvanceHorizon(p.RenameSeq)
		if int(p.RenameSeq-p.Horizon) >= p.cfg.ROBSize+p.cfg.SLIQSize {
			return false
		}
	}
	return true
}

// AllocHint bounds the window by the rename/commit spread (RenameSeq has
// already been advanced past seq).
//
//dkip:hotpath
func (p *Processor) AllocHint(seq uint64) int {
	return int(p.RenameSeq - p.commitSeq)
}

// OnRename records ROB occupancy and feeds the SLIQ age rings.
//
//dkip:hotpath
func (p *Processor) OnRename(d *pipeline.DynInst, q *pipeline.IssueQueue) {
	if p.sliq != nil {
		if q.ID() == pipeline.QInt {
			p.ageI.PushBack(d.Seq)
		} else {
			p.ageF.PushBack(d.Seq)
		}
	}
	p.robCount++
}

// OnBeginMeasure has no model-owned high-water statistics to reset.
//
//dkip:hotpath
func (p *Processor) OnBeginMeasure() {}

// FinishStats has no model-owned statistics to copy.
func (p *Processor) FinishStats(st *pipeline.Stats) {}
