// Package trace defines the instruction-stream interface between workload
// generators and processor models, plus helpers to record, replay, and
// summarize streams in tests and tools.
//
// The simulators in this repository are trace-driven: they consume a stream
// of correct-path instructions and model timing. A Generator produces such a
// stream deterministically.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"dkip/internal/isa"
)

// Generator produces an unbounded, deterministic instruction stream.
// Implementations are not safe for concurrent use. The engine may call Next
// from a goroutine other than the caller of Run or WarmFunctional, though
// only one goroutine at a time, with the hand-over synchronized; so an
// implementation must not depend on which goroutine calls it.
type Generator interface {
	// Next returns the next correct-path instruction.
	Next() isa.Instr
	// Name identifies the workload (e.g. "mcf").
	Name() string
}

// Filler is a Generator that can supply several instructions in one call.
// The engine's instruction feed fills each chunk of its ring with one Fill
// call when the generator has it, so a generator shared by several
// goroutines (a sampled run's tape) takes its lock once per chunk, not once
// per instruction.
type Filler interface {
	Generator
	// Fill writes the next len(buf) instructions of the stream into buf,
	// exactly as len(buf) Next calls would return them.
	Fill(buf []isa.Instr)
}

// Take materializes the next n instructions from g.
func Take(g Generator, n int) []isa.Instr {
	out := make([]isa.Instr, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Replay is a Generator that loops over a fixed instruction slice. It is
// used by unit tests to drive processors with hand-built programs.
type Replay struct {
	// Instrs is the program to replay; Next loops over it forever.
	Instrs []isa.Instr
	// Label is returned by Name.
	Label string

	pos int
}

// NewReplay builds a looping generator over the given program.
func NewReplay(label string, instrs []isa.Instr) *Replay {
	if len(instrs) == 0 {
		panic("trace: NewReplay with empty program")
	}
	return &Replay{Instrs: instrs, Label: label}
}

// Next returns the next instruction, wrapping at the end of the program.
func (r *Replay) Next() isa.Instr {
	in := r.Instrs[r.pos]
	r.pos++
	if r.pos == len(r.Instrs) {
		r.pos = 0
	}
	return in
}

// Name returns the replay label.
func (r *Replay) Name() string { return r.Label }

// Reset restarts from the first instruction.
func (r *Replay) Reset() { r.pos = 0 }

// Mix summarizes the operation-class composition of a stream.
type Mix struct {
	Count [isa.NumOps]uint64
	Total uint64
	// ChainLoads counts loads flagged as pointer-chasing.
	ChainLoads uint64
	// TakenBranches counts taken branches.
	TakenBranches uint64
}

// Observe adds one instruction to the mix.
func (m *Mix) Observe(in isa.Instr) {
	m.Count[in.Op]++
	m.Total++
	if in.Op == isa.Load && in.ChainLoad {
		m.ChainLoads++
	}
	if in.Op == isa.Branch && in.Taken {
		m.TakenBranches++
	}
}

// Frac returns the fraction of instructions with class op.
func (m *Mix) Frac(op isa.Op) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Count[op]) / float64(m.Total)
}

// MeasureMix consumes n instructions from g and summarizes them.
func MeasureMix(g Generator, n int) Mix {
	var m Mix
	for i := 0; i < n; i++ {
		m.Observe(g.Next())
	}
	return m
}

// String renders the mix sorted by descending frequency; ops with equal
// counts tie-break in op order, so the rendering is deterministic however
// the observations arrived.
func (m *Mix) String() string {
	type kv struct {
		op isa.Op
		n  uint64
	}
	var items []kv
	for op := 0; op < isa.NumOps; op++ {
		if m.Count[op] > 0 {
			items = append(items, kv{isa.Op(op), m.Count[op]})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].n != items[j].n {
			return items[i].n > items[j].n
		}
		return items[i].op < items[j].op
	})
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.1f%%", it.op, 100*float64(it.n)/float64(m.Total))
	}
	return b.String()
}
