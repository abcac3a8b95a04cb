package core

import (
	"dkip/internal/engine"
	"dkip/internal/isa"
	"dkip/internal/mem"
	"dkip/internal/pipeline"
	"dkip/internal/trace"
)

// Processor is one D-KIP instance: an engine.Model contributing the Cache
// Processor, dual LLIBs with LLRFs, dual Memory Processors, Address
// Processor, and checkpointing stack. Construct with New; Run simulates a
// workload.
type Processor struct {
	engine.Engine

	cfg Config

	// Cache Processor.
	cpInt, cpFP *pipeline.IssueQueue
	cpFU        *pipeline.FUPool

	// Low Locality Instruction Buffers and their register files.
	llibInt, llibFP *LLIB
	llrfInt, llrfFP *LLRF

	// Memory Processors (Future File machines).
	mpInt, mpFP  *pipeline.IssueQueue
	mpFUI, mpFUF *pipeline.FUPool

	// analyzeSeq is the next instruction the Analyze stage will consider;
	// the engine's Horizon walks up to it.
	analyzeSeq uint64

	// llbv mirrors the Low Locality Bit Vector for statistics; the
	// authoritative classification walks producer links.
	llbv      [isa.NumRegs]bool
	llbvCount int

	// Checkpointing.
	analyzed       uint64
	lastCheckpoint uint64
	ckptDepth      int
	maxCkptDepth   int
	ckptSeqs       []uint64 // live recovery points, oldest first

	// spreadCap bounds RenameSeq-Horizon: the checkpointed speculative
	// state cannot exceed the machine's structural resources. It is the
	// window arena's minimum size (New), so the arena is sized by it.
	spreadCap int
}

// New builds a D-KIP. It panics on invalid configuration.
func New(cfg Config) *Processor {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Processor{cfg: cfg}
	p.Init(cfg.Params(), p)
	p.cpInt = p.NewIssueQueue(pipeline.QInt, cfg.CPIQSize, cfg.CPInOrder, 0)
	p.cpFP = p.NewIssueQueue(pipeline.QFP, cfg.CPIQSize, cfg.CPInOrder, 0)
	p.cpFU = pipeline.NewFUPool(cfg.CPFU)
	p.llibInt = NewLLIB(cfg.LLIBSize, p.Win)
	p.llibFP = NewLLIB(cfg.LLIBSize, p.Win)
	p.llrfInt = NewLLRF(cfg.LLRFBanks, cfg.LLRFBankSize, cfg.IdealLLRF)
	p.llrfFP = NewLLRF(cfg.LLRFBanks, cfg.LLRFBankSize, cfg.IdealLLRF)
	p.mpInt = p.NewIssueQueue(pipeline.QMPInt, cfg.MPIQSize, *cfg.MPInOrder, 0)
	p.mpFP = p.NewIssueQueue(pipeline.QMPFP, cfg.MPIQSize, *cfg.MPInOrder, 0)
	p.mpFUI = pipeline.NewFUPool(cfg.MPFU)
	p.mpFUF = pipeline.NewFUPool(cfg.MPFU)
	// Rename admits an instruction only while RenameSeq-Horizon stays
	// below spreadCap, the arena's minimum size (Params.WindowCap plus the
	// fetch queue, which Init sized the window from), so the live
	// sequence numbers, those at or above Horizon, never share a slot.
	// Every other lookup the D-KIP makes is of a stale sequence number: a
	// producer link, a consumer or an issue-queue entry that left. The
	// horizon passed it because it was Done (and so Issued), or because
	// its slot already held a younger instruction; either way its check
	// (Seq != seq, Done, Issued) gives the same answer whether or not its
	// slot was reused since. So any arena of at least spreadCap entries
	// simulates the same machine, and the smallest power of two is used.
	p.spreadCap = p.P.WindowCap + len(p.FQ)
	return p
}

// LLBVCount returns the number of architectural registers currently marked
// long-latency — §3.2 argues this never saturates in steady state.
func (p *Processor) LLBVCount() int { return p.llbvCount }

// Stages resets the per-cycle structure ports, then runs the D-KIP back
// end: complete, Analyze, CP issue, LLIB extraction, MP issue. The Cache
// Processor selects from its two queues with priority alternating by cycle
// parity; each Memory Processor selects from its own queue.
//
//dkip:hotpath
func (p *Processor) Stages(g trace.Generator) {
	p.cpFU.NewCycle(p.Cycle)
	p.mpFUI.NewCycle(p.Cycle)
	p.mpFUF.NewCycle(p.Cycle)
	p.llrfInt.NewCycle(p.Cycle)
	p.llrfFP.NewCycle(p.Cycle)
	p.CompleteStage()
	p.analyzeStage()
	p.IssueSelect(p.cfg.CPIssueWidth, p.cpFU, p.cpInt, p.cpFP)
	p.extractLLIBs()
	p.IssueSelect(p.cfg.MPIssueWidth, p.mpFUI, p.mpInt)
	if !p.cfg.SingleLLIB {
		p.IssueSelect(p.cfg.MPIssueWidth, p.mpFUF, p.mpFP)
	}
}

// EndCycle reconciles the checkpoint stack once all low-locality work has
// drained: the architectural state is then fully reconciled and the stack
// empties.
//
//dkip:hotpath
func (p *Processor) EndCycle(g trace.Generator) {
	if p.ckptDepth > 0 && p.llibInt.Len() == 0 && p.llibFP.Len() == 0 &&
		p.mpInt.Len() == 0 && p.mpFP.Len() == 0 {
		p.ckptDepth = 0
		p.ckptSeqs = p.ckptSeqs[:0]
	}
}

// ConsiderWake adds the Aging-ROB head's timer deadline as a wake source.
//
//dkip:hotpath
func (p *Processor) ConsiderWake(w *engine.WakeScan) {
	if p.analyzeSeq < p.RenameSeq {
		e := p.Win.Get(p.analyzeSeq)
		if e.Seq == p.analyzeSeq {
			w.Consider(e.RenameCycle + int64(p.cfg.ROBTimer))
		}
	}
}

// OnComplete applies D-KIP completion bookkeeping: LLBV clearing, and
// out-of-order commit of low-locality instructions.
//
//dkip:hotpath
func (p *Processor) OnComplete(d *pipeline.DynInst) {
	// A completed value clears the register's long-latency mark unless a
	// younger writer has redefined it.
	if prod, busy := p.SB.Lookup(d.In.Dest); d.In.Op.HasDest() && busy && prod == d.Seq {
		p.setLLBV(d.In.Dest, false)
	}
	if d.LowLocality {
		// LLIB/MP instructions and AP-custody loads retire at
		// completion (out-of-order commit under checkpoints).
		p.Commit(d, engine.CommitMP)
	}
}

// RecoveryExtra charges checkpoint-recovery costs for a misprediction
// resolved on the slow path and clears the LLBV (§3.2).
//
//dkip:hotpath
func (p *Processor) RecoveryExtra(d *pipeline.DynInst) int64 {
	// Checkpoint recovery restores the register file and clears the LLBV.
	p.clearLLBV()
	return int64(p.cfg.RecoveryPenalty) + p.recoveryReplayCycles(d.Seq)
}

//dkip:hotpath
func (p *Processor) clearLLBV() {
	for i := range p.llbv {
		p.llbv[i] = false
	}
	p.llbvCount = 0
}

// classification is the Analyze stage's verdict on one instruction.
type classification uint8

const (
	classRetire classification = iota // executed: retire from the CP
	classLong                         // low locality: move to the LLIB
	classAPLoad                       // issued load missing to memory: AP custody
	classWait                         // short latency, still in flight: stall
)

// classify implements the Analyze rules of §3.2.
//
//dkip:hotpath
func (p *Processor) classify(e *pipeline.DynInst) classification {
	if e.Done {
		return classRetire
	}
	if e.In.Op == isa.Load && e.Issued {
		if e.MemLevel == mem.LevelMemory {
			return classAPLoad
		}
		return classWait // L1/L2 access in flight: resolves shortly
	}
	if e.Issued {
		return classWait // executing in a functional unit
	}
	// Not issued: inspect the producers of still-pending operands.
	long := false
	for _, prod := range [2]uint64{e.Prod1, e.Prod2} {
		if prod == pipeline.NoProducer {
			continue
		}
		pe := p.Win.Get(prod)
		if pe.Seq != prod || pe.Done {
			continue
		}
		if pe.LowLocality {
			long = true
			continue
		}
		if pe.In.Op == isa.Load && pe.Issued && pe.MemLevel == mem.LevelMemory {
			long = true
			continue
		}
		// Producer is short-latency but unfinished: the load timer
		// has not seen it writeback yet.
		return classWait
	}
	if long {
		return classLong
	}
	// All producers complete but the instruction has not issued (FU or
	// port contention, or in-order queue blocking): it executes soon.
	return classWait
}

// analyzeStage advances the Aging-ROB head: retiring executed instructions,
// migrating low-locality ones into the LLIBs (allocating their READY operand
// in the LLRF, taking checkpoints), and stalling on short-latency in-flight
// instructions (§3.2, ~0.7% IPC cost).
//
//dkip:hotpath
func (p *Processor) analyzeStage() {
	deadline := p.Cycle - int64(p.cfg.ROBTimer)
	for n := 0; n < p.cfg.AnalyzeWidth; n++ {
		if p.analyzeSeq >= p.RenameSeq {
			return
		}
		e := p.Win.Get(p.analyzeSeq)
		if e.RenameCycle > deadline {
			return // not aged enough yet
		}
		switch p.classify(e) {
		case classRetire:
			p.setLLBV(e.In.Dest, false)
			p.Commit(e, engine.CommitCP)

		case classAPLoad:
			// The load already executes in the Address Processor;
			// release its Aging-ROB entry and mark its result
			// long-latency. It commits when the value returns.
			e.LowLocality = true
			p.setLLBV(e.In.Dest, true)

		case classLong:
			if !p.insertLLIB(e) {
				return // LLIB or LLRF full: Analyze stalls
			}
			// A low-confidence branch entering the slow path is the
			// likeliest rollback site: anchor a checkpoint on it.
			if p.cfg.CheckpointOnLowConf && e.In.Op == isa.Branch && e.LowConf {
				p.takeCheckpoint(e.Seq)
			}

		case classWait:
			if p.cfg.IdealAnalyze {
				// Ablation: pretend the instruction retired; it
				// completes later without further accounting.
				p.setLLBV(e.In.Dest, false)
				p.Commit(e, engine.CommitCP)
				break
			}
			p.Stats.AnalyzeWaitStalls++
			return
		}
		p.analyzeSeq++
		p.analyzed++
		p.DidWork = true
	}
}

//dkip:hotpath
func (p *Processor) setLLBV(r isa.Reg, long bool) {
	if !r.Valid() {
		return
	}
	if p.llbv[r] != long {
		p.llbv[r] = long
		if long {
			p.llbvCount++
		} else {
			p.llbvCount--
		}
	}
}

// insertLLIB moves a low-locality instruction from the CP into its LLIB.
//
//dkip:hotpath
func (p *Processor) insertLLIB(e *pipeline.DynInst) bool {
	llib, llrf := p.llibInt, p.llrfInt
	if !p.cfg.SingleLLIB && e.IsFPClass() {
		llib, llrf = p.llibFP, p.llrfFP
	}
	if llib.Full() {
		p.Stats.LLIBFullStalls++
		return false
	}
	// Capture the READY operand (at most one, §3.2) into the LLRF.
	bank := int8(-1)
	if p.hasReadyOperand(e) {
		b := llrf.Alloc()
		if b < 0 {
			p.Stats.LLIBFullStalls++
			return false
		}
		bank = int8(b)
	}
	// Release the CP issue-queue slot it occupied.
	switch e.Queue {
	case pipeline.QInt:
		p.cpInt.RemoveWaiting()
	case pipeline.QFP:
		p.cpFP.RemoveWaiting()
	}
	e.Queue = pipeline.QLLIB
	e.LowLocality = true
	e.LLRFBank = bank
	p.setLLBV(e.In.Dest, true)
	llib.Push(e.Seq)

	// Checkpointing: ensure a recovery point covers this low-locality
	// slice (one checkpoint at least every CheckpointStride analyzed
	// instructions once slices are active).
	if p.analyzed-p.lastCheckpoint >= uint64(p.cfg.CheckpointStride) {
		p.takeCheckpoint(e.Seq)
	}
	return true
}

// takeCheckpoint records a recovery point at the given instruction. When the
// stack is full the oldest checkpoint is dropped: later rollbacks replay
// from a coarser point.
//
//dkip:hotpath
func (p *Processor) takeCheckpoint(seq uint64) {
	p.lastCheckpoint = p.analyzed
	// Prune checkpoints the horizon has passed: nothing can roll back
	// before the oldest live instruction. Dropped heads are shifted out
	// (not resliced away) so the backing array never accretes a dead
	// prefix; the stack is bounded by CheckpointStackSize, so the copy is
	// cheap.
	drop := 0
	for drop < len(p.ckptSeqs) && p.ckptSeqs[drop] < p.Horizon {
		drop++
	}
	if len(p.ckptSeqs)-drop >= p.cfg.CheckpointStackSize {
		drop++
	}
	if drop > 0 {
		n := copy(p.ckptSeqs, p.ckptSeqs[drop:])
		p.ckptSeqs = p.ckptSeqs[:n]
	}
	//dkip:alloc-ok bounded by MaxCheckpoints and reused after the warmup ramp
	p.ckptSeqs = append(p.ckptSeqs, seq)
	p.ckptDepth = len(p.ckptSeqs)
	if p.ckptDepth > p.maxCkptDepth {
		p.maxCkptDepth = p.ckptDepth
	}
	p.Stats.Checkpoints++
}

// recoveryReplayCycles estimates the cost of re-dispatching correct-path
// instructions between the nearest checkpoint at or before seq and seq
// itself. Only charged when the configuration enables ReplayRecovery.
//
//dkip:hotpath
func (p *Processor) recoveryReplayCycles(seq uint64) int64 {
	if !p.cfg.ReplayRecovery {
		return 0
	}
	base := p.Horizon
	for _, c := range p.ckptSeqs {
		if c <= seq && c > base {
			base = c
		}
	}
	dist := int64(seq-base) / int64(p.cfg.AnalyzeWidth)
	const replayCap = 512 // a full pipeline re-walk, bounded
	if dist > replayCap {
		dist = replayCap
	}
	return dist
}

// hasReadyOperand reports whether at least one source value is already
// computed and must therefore be carried into the LLRF.
//
//dkip:hotpath
func (p *Processor) hasReadyOperand(e *pipeline.DynInst) bool {
	n := 0
	ready := 0
	for i, src := range [2]isa.Reg{e.In.Src1, e.In.Src2} {
		if !src.Valid() {
			continue
		}
		n++
		prod := e.Prod1
		if i == 1 {
			prod = e.Prod2
		}
		if prod == pipeline.NoProducer {
			ready++
			continue
		}
		pe := p.Win.Get(prod)
		if pe.Seq != prod || pe.Done {
			ready++
		}
	}
	return n > 0 && ready > 0
}

// extractLLIBs drains LLIB heads into the Memory Processors at the FIFO
// extraction rate, reading captured operands from the LLRF.
//
//dkip:hotpath
func (p *Processor) extractLLIBs() {
	p.extractOne(p.llibInt, p.llrfInt, p.mpInt)
	if !p.cfg.SingleLLIB {
		p.extractOne(p.llibFP, p.llrfFP, p.mpFP)
	}
}

//dkip:hotpath
func (p *Processor) extractOne(llib *LLIB, llrf *LLRF, mp *pipeline.IssueQueue) {
	for n := 0; n < p.cfg.LLIBRate; n++ {
		if mp.Full() || !llib.HeadExtractable() {
			return
		}
		seq, _ := llib.Head()
		e := p.Win.Get(seq)
		conflict := false
		if e.LLRFBank >= 0 {
			conflict = llrf.Read(int(e.LLRFBank))
		}
		llib.Pop()
		mp.Insert(seq, e.Pending == 0)
		p.DidWork = true
		if conflict {
			// A bank being written this cycle delays the read one
			// cycle; charge it by ending this LLIB's extraction.
			return
		}
	}
}

// RenameAdmit enforces the Aging-ROB occupancy and checkpointed-state
// spread bounds.
//
//dkip:hotpath
func (p *Processor) RenameAdmit() bool {
	// The Aging ROB holds everything renamed and not yet analyzed.
	if int(p.RenameSeq-p.analyzeSeq) >= p.cfg.ROBSize {
		return false
	}
	p.AdvanceHorizon(p.analyzeSeq)
	// The oldest low-locality instruction still holds checkpointed state
	// the machine cannot exceed.
	return int(p.RenameSeq-p.Horizon) < p.spreadCap
}

// AllocHint bounds the window by the rename/horizon spread (seq is the
// sequence number being allocated).
//
//dkip:hotpath
func (p *Processor) AllocHint(seq uint64) int {
	return int(seq - p.Horizon)
}

// OnRename has no model occupancy to record: the Aging-ROB count derives
// from the analyze/rename sequence spread.
//
//dkip:hotpath
func (p *Processor) OnRename(d *pipeline.DynInst, q *pipeline.IssueQueue) {}

// OnBeginMeasure re-bases the LLIB/LLRF high-water marks: they are reported
// for the measurement window.
//
//dkip:hotpath
func (p *Processor) OnBeginMeasure() {
	p.llibInt.MaxInstrs = p.llibInt.Len()
	p.llibFP.MaxInstrs = p.llibFP.Len()
	p.llrfInt.MaxUsed = p.llrfInt.Allocated
	p.llrfFP.MaxUsed = p.llrfFP.Allocated
	p.llrfInt.Conflicts = 0
	p.llrfFP.Conflicts = 0
}

// FinishStats reports the LLIB/LLRF high-water marks and bank conflicts.
func (p *Processor) FinishStats(st *pipeline.Stats) {
	st.MaxLLIBInstrs = [2]int{p.llibInt.MaxInstrs, p.llibFP.MaxInstrs}
	st.MaxLLIBRegs = [2]int{p.llrfInt.MaxUsed, p.llrfFP.MaxUsed}
	st.LLRFBankConflicts = p.llrfInt.Conflicts + p.llrfFP.Conflicts
}

// MaxCheckpointDepth returns the deepest the checkpoint stack got.
func (p *Processor) MaxCheckpointDepth() int { return p.maxCkptDepth }
