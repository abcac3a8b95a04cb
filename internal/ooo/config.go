// Package ooo implements a cycle-level out-of-order superscalar processor in
// the style of the MIPS R10000: merged physical register file, per-cluster
// issue queues, a reorder buffer, and a load/store queue.
//
// The same model serves four roles in the reproduction:
//
//   - the R10-64 / R10-256 / R10-768 baselines of Figure 9 and §4.2;
//   - the "resources limited only by the ROB" cores of the memory-wall limit
//     study (Figures 1–3), by setting queue sizes equal to the ROB;
//   - the KILO-1024 baseline of Figure 9, by enabling the Slow Lane
//     Instruction Queue (SLIQ) extension: waiting long-latency instructions
//     migrate out of the small issue queues into a large secondary
//     out-of-order queue, and recovery falls back to checkpoints
//     (see package kilo);
//   - the in-order C920 calibration core of package inorder, built by
//     NewUnified with one in-order issue queue for every instruction class.
package ooo

import (
	"fmt"

	"dkip/internal/engine"
	"dkip/internal/mem"
	"dkip/internal/pipeline"
	"dkip/internal/predictor"
)

// Config describes one processor instance.
type Config struct {
	// Name labels the configuration in reports (e.g. "R10-64").
	Name string

	// Widths; zero values default to 4 (the paper's 4-way core).
	FetchWidth, RenameWidth, IssueWidth, CommitWidth int

	// FrontEndDepth is the fetch-to-rename latency in cycles (default 5).
	FrontEndDepth int
	// RedirectPenalty is the additional penalty after a mispredicted
	// branch resolves, on top of refilling the front end (default 1).
	RedirectPenalty int

	// ROBSize bounds in-flight instructions. Required.
	ROBSize int
	// IQSize is the per-cluster issue-queue capacity (integer and FP
	// each). Zero means "as large as the ROB" — the limit-study setting
	// where only the ROB can stall the machine.
	IQSize int
	// InOrder restricts both issue queues to oldest-first issue.
	InOrder bool
	// LSQSize bounds in-flight memory operations; zero = ROBSize.
	LSQSize int
	// MemPorts is the number of cache ports (loads issued per cycle);
	// zero defaults to 2, Table 2's "2 R/W ports (global)".
	MemPorts int
	// MSHRs bounds outstanding off-chip misses (miss status holding
	// registers). Zero means unlimited — the paper's machines are sized
	// so only window structures limit memory-level parallelism, but the
	// MLP a window exposes is only realized if the memory system sustains
	// it; the "ablation-mshr" experiment quantifies that.
	MSHRs int

	// FU selects the functional-unit complement; the zero value means
	// pipeline.DefaultFUConfig (Table 2).
	FU pipeline.FUConfig

	// Mem is the memory hierarchy configuration; the zero value means
	// mem.DefaultConfig (Table 2/3: 32KB L1, 512KB L2, 400-cycle memory).
	Mem mem.Config

	// NewPredictor constructs the branch predictor; nil defaults to the
	// perceptron predictor of Table 2.
	// Function fields cannot be serialized: they are excluded from JSON
	// (the serve layer's wire format) just as the content hash skips them.
	NewPredictor func() predictor.Predictor `json:"-"`

	// SLIQ enables the Slow Lane Instruction Queue: instructions that
	// have waited in an issue queue longer than SLIQTimer cycles without
	// becoming ready migrate to a secondary out-of-order queue of
	// SLIQSize entries, freeing the primary queue. SLIQSize==0 disables.
	SLIQSize int
	// SLIQTimer is the migration age in cycles (default 16).
	SLIQTimer int
	// SLIQReinsertDelay models the slow lane's wakeup path: a woken SLIQ
	// instruction is re-dispatched through the front of the machine
	// before issuing, adding this many cycles (default 6).
	SLIQReinsertDelay int
	// CheckpointPenalty is the extra recovery cost, in cycles, when a
	// mispredicted branch resolves from the SLIQ (checkpoint restore
	// instead of rename-stack recovery). Default 8.
	CheckpointPenalty int

	// RunaheadDepth enables runahead execution (see runahead.go): while
	// an off-chip miss blocks the ROB head, the front end scans up to
	// this many future instructions and prefetches their regular loads.
	// Zero disables runahead.
	RunaheadDepth int
}

// WithDefaults returns the configuration with every zero field, the memory
// configuration's included, replaced by its default. New applies it
// implicitly; internal/sim applies it before hashing so equivalent
// configurations memoize as the same machine.
func (c Config) WithDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.FetchWidth, 4)
	def(&c.RenameWidth, 4)
	def(&c.IssueWidth, 4)
	def(&c.CommitWidth, 4)
	def(&c.FrontEndDepth, 5)
	def(&c.RedirectPenalty, 1)
	def(&c.IQSize, c.ROBSize)
	def(&c.LSQSize, c.ROBSize)
	def(&c.MemPorts, 2)
	if c.FU == (pipeline.FUConfig{}) {
		c.FU = pipeline.DefaultFUConfig()
	}
	c.Mem = c.Mem.OrDefault()
	if c.NewPredictor == nil {
		c.NewPredictor = func() predictor.Predictor {
			return predictor.NewPerceptron(4096, 24)
		}
	}
	if c.SLIQSize > 0 {
		def(&c.SLIQTimer, 16)
		def(&c.SLIQReinsertDelay, 6)
		def(&c.CheckpointPenalty, 8)
	}
	return c
}

// Defaults is WithDefaults behind the engine.Config contract.
func (c Config) Defaults() engine.Config { return c.WithDefaults() }

// Params returns the engine parameters of the configuration.
func (c Config) Params() engine.Params {
	winCap := c.ROBSize + c.SLIQSize + 64
	if c.SLIQSize > 0 {
		// Out-of-order commit lets the rename/commit spread exceed the
		// structural window while the in-order counter catches up.
		winCap += 8192
	}
	return engine.Params{
		Family:          "ooo",
		Name:            c.Name,
		FetchWidth:      c.FetchWidth,
		RenameWidth:     c.RenameWidth,
		FrontEndDepth:   c.FrontEndDepth,
		RedirectPenalty: c.RedirectPenalty,
		LSQSize:         c.LSQSize,
		MemPorts:        c.MemPorts,
		MSHRs:           c.MSHRs,
		WindowCap:       winCap,
		RunaheadDepth:   c.RunaheadDepth,
		Mem:             c.Mem,
		NewPredictor:    c.NewPredictor,
	}
}

// InFlight is the ROB plus the slow-lane queue.
func (c Config) InFlight() uint64 { return uint64(c.ROBSize + c.SLIQSize) }

// Validate reports configuration errors, the memory hierarchy's included.
func (c Config) Validate() error {
	if err := engine.CheckNonNegative(c); err != nil {
		return fmt.Errorf("ooo: %s: %w", c.Name, err)
	}
	if c.ROBSize <= 0 {
		return fmt.Errorf("ooo: %s: ROBSize must be positive", c.Name)
	}
	if c.SLIQSize > 0 && c.InOrder {
		return fmt.Errorf("ooo: %s: the SLIQ requires out-of-order primary queues", c.Name)
	}
	if err := engine.CheckArena(c, "ROBSize", "SLIQSize"); err != nil {
		return fmt.Errorf("ooo: %s: %w", c.Name, err)
	}
	if err := c.FU.Check(); err != nil {
		return fmt.Errorf("ooo: %s: FU: %w", c.Name, err)
	}
	if err := c.Mem.OrDefault().Validate(); err != nil {
		return fmt.Errorf("ooo: %s: %w", c.Name, err)
	}
	return nil
}

// R10K64 is the paper's R10-64 baseline: 64-entry ROB, 40-entry queues —
// identical to the default Cache Processor.
func R10K64() Config {
	return Config{Name: "R10-64", ROBSize: 64, IQSize: 40, LSQSize: 512}
}

// R10K256 is the paper's "futuristic" R10-256: 256-entry ROB, 160-entry
// queues.
func R10K256() Config {
	return Config{Name: "R10-256", ROBSize: 256, IQSize: 160, LSQSize: 512}
}

// R10K768 matches the R10-768 point referenced in §4.2's comparison with the
// D-KIP's SpecFP performance.
func R10K768() Config {
	return Config{Name: "R10-768", ROBSize: 768, IQSize: 512, LSQSize: 512}
}

// LimitCore returns a core whose only stall resource is an n-entry ROB, as
// used in the memory-wall study of Figures 1–3.
func LimitCore(n int, m mem.Config) Config {
	return Config{
		Name:    fmt.Sprintf("LIMIT-%d", n),
		ROBSize: n,
		// IQSize/LSQSize default to ROBSize; abundant FUs.
		FU:       pipeline.WideFUConfig(),
		Mem:      m,
		MemPorts: 4,
	}
}
