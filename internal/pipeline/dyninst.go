// Package pipeline provides the microarchitectural building blocks shared by
// every processor model in this repository: the dynamic-instruction window,
// register scoreboard, issue queues (out-of-order wakeup/select and in-order),
// functional-unit pools, completion event queue, and statistics.
//
// The models are cycle-driven and trace-driven: each cycle they commit,
// complete, issue, rename and fetch, in that order, over DynInst records that
// wrap the trace's isa.Instr with timing bookkeeping.
package pipeline

import (
	"fmt"

	"dkip/internal/isa"
	"dkip/internal/mem"
)

// QueueID identifies which issue queue holds a waiting instruction.
type QueueID int8

// Queue identifiers used by the processor models.
const (
	// QNone marks an instruction not resident in any issue queue.
	QNone QueueID = iota
	// QInt is the integer issue queue.
	QInt
	// QFP is the floating-point issue queue.
	QFP
	// QSLIQ is the Slow Lane Instruction Queue of the KILO baseline.
	QSLIQ
	// QLLIB marks residence in a D-KIP Low Locality Instruction Buffer.
	QLLIB
	// QMPInt is the D-KIP integer Memory Processor's reservation stations.
	QMPInt
	// QMPFP is the D-KIP floating-point Memory Processor's reservation
	// stations.
	QMPFP
)

// NoProducer marks an operand with no in-flight producer at rename time.
const NoProducer = ^uint64(0)

// DynInst is one in-flight dynamic instruction. Processor models allocate
// them from a Window keyed by sequence number.
type DynInst struct {
	// Seq is the global dynamic sequence number (program order).
	Seq uint64
	// In is the architectural instruction from the trace.
	In isa.Instr

	// Timing, in cycles. A value of -1 means "not yet".
	FetchCycle, RenameCycle, IssueCycle, CompleteCycle int64

	// Pending is the number of source operands still being produced.
	Pending int8
	// Queue is the issue queue currently holding the instruction.
	Queue QueueID
	// Issued is set once the instruction has left its issue queue.
	Issued bool
	// Done is set when execution completes (result available).
	Done bool
	// Mispred marks a branch the front end predicted incorrectly.
	Mispred bool
	// LowConf marks a branch predicted with low confidence (JRS
	// estimator); checkpoint policies may anchor recovery points on it.
	LowConf bool
	// MemLevel records which level satisfied a load.
	MemLevel mem.Level
	// MemLatency is the load latency observed from the hierarchy.
	MemLatency int

	// Consumers lists sequence numbers of dispatched instructions
	// waiting on this instruction's result. The slice's capacity is
	// reused across window generations.
	Consumers []uint64

	// Prod1 and Prod2 record the in-flight producers of the two source
	// operands as captured at rename, or NoProducer. The D-KIP Analyze
	// stage walks them to classify execution locality (they are the
	// hardware's Low Locality Bit Vector lookup).
	Prod1, Prod2 uint64

	// Fields used by the D-KIP model (kept here so one arena serves all
	// models):

	// LowLocality marks an instruction classified by Analyze as
	// depending on a long-latency event (moved to the LLIB).
	LowLocality bool
	// LLRFBank is the LLRF bank holding the READY source operand captured
	// at LLIB insertion, or -1.
	LLRFBank int8
}

// reset reinitializes an entry for a new dynamic instruction, keeping the
// Consumers slice capacity. It zeroes the entry and then sets the fields
// whose initial value is not zero, all in place: assigning one whole
// literal would build it in a temporary and copy it over the entry.
func (d *DynInst) reset(seq uint64, in isa.Instr) {
	c := d.Consumers[:0]
	*d = DynInst{}
	d.Seq, d.In = seq, in
	d.FetchCycle, d.RenameCycle, d.IssueCycle, d.CompleteCycle = -1, -1, -1, -1
	d.Consumers = c
	d.Prod1, d.Prod2 = NoProducer, NoProducer
	d.LLRFBank = -1
	// Normalize: an operation without a destination must not appear to
	// define a register, whatever the trace put in the Dest field.
	if !in.Op.HasDest() {
		d.In.Dest = isa.RegNone
	}
}

// IsFPClass reports whether the instruction belongs to the floating-point
// cluster for queue routing: FP arithmetic, and loads/stores of FP registers.
func (d *DynInst) IsFPClass() bool {
	if d.In.Op.IsFP() {
		return true
	}
	if d.In.Op == isa.Load {
		return d.In.Dest.IsFP()
	}
	return false
}

// Window is a power-of-two arena of DynInst records indexed by sequence
// number. The caller guarantees at most Capacity instructions are in flight.
type Window struct {
	entries []DynInst
	mask    uint64
}

// consumersPrealloc is the per-entry Consumers capacity carved out of one
// shared backing array at construction. Most instructions have at most a
// few direct consumers; pre-seeding the capacity keeps the first window
// generation from paying a grow-from-nil allocation per entry.
const consumersPrealloc = 4

// NewWindow builds an arena with capacity at least minCap (rounded up to a
// power of two).
func NewWindow(minCap int) *Window {
	if minCap <= 0 {
		panic("pipeline: NewWindow with non-positive capacity")
	}
	n := 64
	for n < minCap {
		n <<= 1
	}
	w := &Window{entries: make([]DynInst, n), mask: uint64(n - 1)}
	backing := make([]uint64, n*consumersPrealloc)
	for i := range w.entries {
		// Three-index slicing caps each entry's slice so growth past the
		// preallocated region reallocates instead of overwriting a
		// neighbor's.
		w.entries[i].Consumers = backing[i*consumersPrealloc : i*consumersPrealloc : (i+1)*consumersPrealloc]
	}
	return w
}

// Capacity returns the arena capacity.
func (w *Window) Capacity() int { return len(w.entries) }

// Get returns the entry for seq. The entry is only meaningful between
// Alloc(seq) and the retirement of seq.
//
//dkip:hotpath
func (w *Window) Get(seq uint64) *DynInst {
	return &w.entries[seq&w.mask]
}

// Alloc initializes and returns the entry for seq. It panics if the slot
// still belongs to a live instruction — that means the model let more than
// Capacity instructions into flight, a bug worth failing loudly on.
//
//dkip:hotpath
func (w *Window) Alloc(seq uint64, in isa.Instr, inFlight int) *DynInst {
	if inFlight >= len(w.entries) {
		panic(fmt.Sprintf("pipeline: window overflow: %d in flight, capacity %d", inFlight, len(w.entries)))
	}
	e := &w.entries[seq&w.mask]
	e.reset(seq, in)
	return e
}
