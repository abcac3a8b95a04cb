package engine

import (
	"dkip/internal/pipeline"
	"dkip/internal/trace"
)

// CommitPath tells the engine which retirement counter a commit belongs to.
type CommitPath uint8

const (
	// CommitDirect is ordinary in-order retirement (the out-of-order and
	// in-order baselines): only Committed is counted.
	CommitDirect CommitPath = iota
	// CommitCP is a D-KIP Cache Processor retirement (Analyze-stage).
	CommitCP
	// CommitMP is a D-KIP out-of-order retirement from a Memory Processor
	// or the Address Processor, covered by a checkpoint.
	CommitMP
)

// Model is the architecture-specific half of a processor. The Engine owns
// the cycle loop, the front end (fetch queue, branch predictor, confidence
// estimator), rename bookkeeping (window allocation, queue routing, producer
// links, scoreboard), the select loop and its cache ports, wakeup, the
// completion event queue, load/store-queue and miss-register lifetime,
// scoreboard completion, store retirement, the slow-path recovery count,
// the liveness horizon, statistics windows, and functional-warm /
// checkpoint plumbing. A Model registers its issue queues through
// Engine.NewIssueQueue, which carries the queue routing and any per-queue
// issue delay as data, and contributes the machine's structure hazards and
// its issue/commit topology through ten hooks: Stages, EndCycle and
// ConsiderWake each cycle; RenameAdmit, AllocHint and OnRename at rename;
// OnComplete and RecoveryExtra at completion; OnBeginMeasure and
// FinishStats around a run. Fetch is the engine's alone: a model that reads
// the stream ahead of fetch (runahead) does so through Engine.PullAhead,
// and fetch delivers what it pulled first.
//
// Every hook that runs on the per-cycle path must carry //dkip:hotpath in
// its implementation: the engine dispatches through this interface, which
// static analysis cannot walk, so each implementation is its own root for
// the allocation gate.
type Model interface {
	// Stages runs the model's back-end stages for this cycle — resetting
	// its per-cycle structures (functional-unit pools, register-file
	// ports), then commit / complete / analyze / issue, in the model's
	// order — delegating to Engine.CompleteStage, Engine.IssueSelect and
	// Engine.Commit. It runs first each cycle, after the engine freed the
	// cache ports; the engine runs rename and fetch afterwards.
	Stages(g trace.Generator)
	// EndCycle runs after fetch, immediately before the clock advances
	// (checkpoint-stack reconciliation, runahead episodes).
	EndCycle(g trace.Generator)
	// ConsiderWake reports additional cycles at which the machine can make
	// progress while idle (e.g. an aging-timer deadline). The engine has
	// already considered the event queue, fetch buffer, and redirect.
	ConsiderWake(w *WakeScan)

	// RenameAdmit reports whether one more instruction may enter the
	// machine (window/ROB occupancy checks). A false return is counted as
	// a StallROBFull by the engine.
	RenameAdmit() bool
	// AllocHint returns the in-flight estimate passed to Window.Alloc for
	// its overflow check, with seq the sequence number being allocated
	// (Engine.RenameSeq has already been advanced past it).
	AllocHint(seq uint64) int
	// OnRename records model occupancy for a just-renamed instruction
	// after it was inserted into q (ROB counters, age rings).
	OnRename(d *pipeline.DynInst, q *pipeline.IssueQueue)

	// OnComplete applies model bookkeeping when execution of d finishes
	// (window occupancy, out-of-order commit). It runs after the engine
	// freed a load's LSQ entry and miss register, and before the engine
	// completes d's destination in the scoreboard and wakes its consumers.
	OnComplete(d *pipeline.DynInst)
	// RecoveryExtra returns the redirect-penalty surcharge for a
	// misprediction resolved on the slow path (checkpoint restore, replay)
	// and performs any recovery side effects. The engine calls it only for
	// mispredicted instructions with LowLocality set, after counting the
	// recovery.
	RecoveryExtra(d *pipeline.DynInst) int64

	// OnBeginMeasure resets model-owned high-water statistics when the
	// measurement window opens.
	OnBeginMeasure()
	// FinishStats copies model-owned statistics into the result.
	FinishStats(st *pipeline.Stats)
}
