// Package core implements the paper's primary contribution: the Decoupled
// KILO-Instruction Processor (D-KIP).
//
// The D-KIP splits execution by *execution locality*. A small out-of-order
// Cache Processor (CP) runs high-locality code — instructions that issue
// shortly after decode because they depend only on cache hits. Instructions
// that (transitively) depend on an off-chip memory access are detected by the
// Analyze stage at the head of the CP's Aging-ROB and moved, with their one
// READY operand captured into the banked Low Locality Register File (LLRF),
// into a FIFO Low Locality Instruction Buffer (LLIB) — one for integer and
// one for floating-point code. When the long-latency load a slice depends on
// completes (its value held by the Address Processor's per-LLIB value FIFO),
// the slice drains from the LLIB head into a simple Future-File Memory
// Processor (MP) and executes there. Recovery across the two levels uses a
// checkpoint stack written through the Architectural Writers Log.
//
// The result is an effective window of thousands of instructions with no
// out-of-order structure larger than the CP's 40-entry queues — the paper's
// headline claim, reproduced by the benchmarks in this repository's root
// bench_test.go.
package core

import (
	"fmt"

	"dkip/internal/engine"
	"dkip/internal/mem"
	"dkip/internal/pipeline"
	"dkip/internal/predictor"
)

// Config describes one D-KIP instance. The zero value of most fields selects
// the paper's defaults (Tables 2 and 3).
type Config struct {
	// Name labels the configuration in reports (e.g. "DKIP-2048").
	Name string

	// Widths; zero defaults to 4, the paper's fetch/decode/analyze width.
	FetchWidth, RenameWidth, AnalyzeWidth int
	// CPIssueWidth is the Cache Processor's issue width (default 4).
	CPIssueWidth int
	// MPIssueWidth is each Memory Processor's issue width (default 4,
	// the MP decode width of Table 2).
	MPIssueWidth int

	// FrontEndDepth is fetch-to-rename latency (default 5 cycles).
	FrontEndDepth int
	// RedirectPenalty is the extra cost of a CP-side branch recovery
	// (rename stack / ROB recovery; default 1 cycle on top of refill).
	RedirectPenalty int
	// RecoveryPenalty is the additional cost when a low-locality branch
	// resolves mispredicted in the MP and a checkpoint must be restored
	// (default 8 cycles).
	RecoveryPenalty int

	// ROBTimer is the Aging-ROB delay: instructions are analyzed this
	// many cycles after rename (default 16; must cover the L2 tag probe).
	ROBTimer int
	// ROBSize is the Aging-ROB capacity (default ROBTimer × commit
	// width = 64, as in the paper).
	ROBSize int

	// CPIQSize is the capacity of each CP issue queue (default 40,
	// Table 3). CPInOrder selects the cheap in-order scheduler studied
	// in Figure 10.
	CPIQSize  int
	CPInOrder bool

	// LLIBSize is the capacity of each Low Locality Instruction Buffer
	// (default 2048, Table 2). LLIBRate is the insertion and extraction
	// rate in instructions per cycle (default 4).
	LLIBSize, LLIBRate int

	// LLRFBanks and LLRFBankSize describe the banked Low Locality
	// Register File (default 8 banks × 256 registers, Table 2).
	LLRFBanks, LLRFBankSize int
	// IdealLLRF disables LLRF capacity limits and bank conflicts — the
	// ablation comparing the banked design against ideal storage.
	IdealLLRF bool

	// MPIQSize is the reservation-station capacity of each Memory
	// Processor (default 20, Table 3). MPInOrder selects in-order issue
	// (the default, per Table 3's "MP Scheduler In-Order").
	MPIQSize  int
	MPInOrder *bool // nil = in-order (paper default)

	// SingleLLIB merges the integer and FP LLIBs and Memory Processors
	// into one of each — the ablation quantifying how much of the D-KIP's
	// FP advantage comes from the dual-pipe organization (§4.2).
	SingleLLIB bool

	// LSQSize is the Address Processor's load/store queue (default 512).
	LSQSize int
	// MemPorts is the number of global cache ports shared by the CP and
	// MPs (default 2, Table 2).
	MemPorts int
	// MSHRs bounds outstanding off-chip misses across the whole machine
	// (miss status holding registers in the Address Processor). Zero
	// means unlimited, the paper's assumption; the "ablation-mshr"
	// experiment shows how much memory-level parallelism the D-KIP's
	// effective window actually demands.
	MSHRs int

	// CheckpointStride is the minimum number of analyzed instructions
	// between checkpoints (default 64).
	CheckpointStride int
	// CheckpointStackSize bounds live recovery points (default 8); when
	// the stack is full the oldest checkpoint is dropped, coarsening any
	// later rollback.
	CheckpointStackSize int
	// CheckpointOnLowConf also anchors a checkpoint whenever a branch
	// predicted with low confidence is analyzed — the policy of Akkary
	// et al. [12] referenced by the paper's checkpointing discussion.
	CheckpointOnLowConf bool
	// ReplayRecovery charges checkpoint recoveries for re-dispatching
	// the correct-path instructions between the restored checkpoint and
	// the mispredicted branch, instead of a flat penalty. Used by the
	// checkpoint-policy ablation.
	ReplayRecovery bool

	// IdealAnalyze removes the Analyze-stage stall that waits for
	// short-latency instructions to write back (§3.2 reports the stall
	// costs ~0.7% IPC) — the ablation for that design choice.
	IdealAnalyze bool

	// CPFU and MPFU give the functional-unit complements. Zero values
	// mean Table 2's: CP gets 4 ALU/1 IMul/4 FPAdd/1 FPMulDiv; each MP
	// gets the same class mix (the integer MP uses the integer units,
	// the FP MP the FP units).
	CPFU, MPFU pipeline.FUConfig

	// Mem is the memory hierarchy (default Table 2/3's MEM-400 with a
	// 512KB L2).
	Mem mem.Config

	// NewPredictor builds the front-end branch predictor (default the
	// perceptron predictor of Table 2).
	// Function fields cannot be serialized: they are excluded from JSON
	// (the serve layer's wire format) just as the content hash skips them.
	NewPredictor func() predictor.Predictor `json:"-"`
}

// WithDefaults returns the configuration with every zero field, the memory
// configuration's included, replaced by the paper's default. New applies it
// implicitly; internal/sim applies it before hashing so that a zero Config
// and an explicitly spelled-out default Config describe (and memoize as) the
// same machine.
func (c Config) WithDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.FetchWidth, 4)
	def(&c.RenameWidth, 4)
	def(&c.AnalyzeWidth, 4)
	def(&c.CPIssueWidth, 4)
	def(&c.MPIssueWidth, 4)
	def(&c.FrontEndDepth, 5)
	def(&c.RedirectPenalty, 1)
	def(&c.RecoveryPenalty, 8)
	def(&c.ROBTimer, 16)
	def(&c.ROBSize, c.ROBTimer*4)
	def(&c.CPIQSize, 40)
	def(&c.LLIBSize, 2048)
	def(&c.LLIBRate, 4)
	def(&c.LLRFBanks, 8)
	def(&c.LLRFBankSize, 256)
	def(&c.MPIQSize, 20)
	def(&c.LSQSize, 512)
	def(&c.MemPorts, 2)
	def(&c.CheckpointStride, 64)
	def(&c.CheckpointStackSize, 8)
	if c.MPInOrder == nil {
		t := true
		c.MPInOrder = &t
	}
	if c.CPFU == (pipeline.FUConfig{}) {
		c.CPFU = pipeline.DefaultFUConfig()
	}
	if c.MPFU == (pipeline.FUConfig{}) {
		c.MPFU = pipeline.DefaultFUConfig()
	}
	c.Mem = c.Mem.OrDefault()
	if c.NewPredictor == nil {
		c.NewPredictor = func() predictor.Predictor {
			return predictor.NewPerceptron(4096, 24)
		}
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("DKIP-%d", c.LLIBSize)
	}
	return c
}

// Defaults is WithDefaults behind the engine.Config contract.
func (c Config) Defaults() engine.Config { return c.WithDefaults() }

// Params returns the engine parameters of the configuration.
func (c Config) Params() engine.Params {
	return engine.Params{
		Family:          "core",
		Name:            c.Name,
		FetchWidth:      c.FetchWidth,
		RenameWidth:     c.RenameWidth,
		FrontEndDepth:   c.FrontEndDepth,
		RedirectPenalty: c.RedirectPenalty,
		LSQSize:         c.LSQSize,
		MemPorts:        c.MemPorts,
		MSHRs:           c.MSHRs,
		// The window spans the sequence numbers from the horizon (the
		// oldest possibly live instruction) to rename: the Aging-ROB, both
		// LLIBs and both Memory Processors' queues, and 64 more entries
		// of slack. Rename interlocks on this spread plus the fetch queue
		// (New's spreadCap), which the engine adds to the arena, so no
		// two live instructions share a window slot.
		WindowCap:      c.ROBSize + 2*c.LLIBSize + 2*c.MPIQSize + 64,
		Mem:            c.Mem,
		NewPredictor:   c.NewPredictor,
		WithConfidence: true,
	}
}

// InFlight is the larger of the LLIB and the Aging-ROB.
func (c Config) InFlight() uint64 { return uint64(max(c.LLIBSize, c.ROBSize)) }

// Validate reports configuration errors, the memory hierarchy's included.
func (c Config) Validate() error {
	if err := engine.CheckNonNegative(c); err != nil {
		return fmt.Errorf("core: %s: %w", c.Name, err)
	}
	if c.ROBSize < c.ROBTimer {
		return fmt.Errorf("core: %s: ROB (%d) smaller than the aging timer (%d) cannot hold aging instructions",
			c.Name, c.ROBSize, c.ROBTimer)
	}
	if c.LLIBSize <= 0 || c.LLIBRate <= 0 {
		return fmt.Errorf("core: %s: LLIB size/rate must be positive", c.Name)
	}
	if c.LLRFBanks <= 0 || c.LLRFBankSize <= 0 {
		return fmt.Errorf("core: %s: LLRF geometry must be positive", c.Name)
	}
	if c.LLRFBanks > MaxLLRFBanks {
		return fmt.Errorf("core: %s: LLRFBanks %d is over the limit of %d (core.MaxLLRFBanks)", c.Name, c.LLRFBanks, MaxLLRFBanks)
	}
	if err := engine.CheckArena(c, "ROBSize", "LLIBSize", "MPIQSize"); err != nil {
		return fmt.Errorf("core: %s: %w", c.Name, err)
	}
	if err := c.CPFU.Check(); err != nil {
		return fmt.Errorf("core: %s: CPFU: %w", c.Name, err)
	}
	if err := c.MPFU.Check(); err != nil {
		return fmt.Errorf("core: %s: MPFU: %w", c.Name, err)
	}
	if err := c.Mem.OrDefault().Validate(); err != nil {
		return fmt.Errorf("core: %s: %w", c.Name, err)
	}
	return nil
}

// MaxLLRFBanks bounds LLRFBanks: the LLRF marks the banks written in the
// current cycle in a 32-bit mask, so a bank beyond the 32nd would never
// conflict.
const MaxLLRFBanks = 32

// Bool is a helper for the MPInOrder pointer field.
func Bool(v bool) *bool { return &v }

// DefaultConfig returns the paper's baseline D-KIP-2048: Table 2's invariant
// parameters with Table 3's defaults (40-entry out-of-order CP queues,
// 20-entry in-order MPs, 2048-entry LLIBs, 512KB L2, 400-cycle memory).
func DefaultConfig() Config {
	return Config{Name: "DKIP-2048"}.WithDefaults()
}
