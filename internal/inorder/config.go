// Package inorder configures a dual-issue in-order core in the style of the
// T-Head XuanTie C920, the RISC-V core the SG2042 64-core socket is built
// from, as the hardware-calibration target for the SG2042 evaluations
// (arXiv:2309.00381, 2406.12394).
//
// The machine is deliberately simple: a unified in-order issue queue
// (oldest-first, head blocks), a scoreboarded in-flight window retired in
// order, and the engine's shared front end. Everything long-latency stalls
// the queue head — exactly the behavior whose cost the D-KIP decoupling is
// designed to remove, which makes this core a useful lower anchor next to
// the R10K baselines.
//
// The package has no pipeline code of its own. New maps Config onto the
// out-of-order model with a single in-order issue queue (ooo.NewUnified):
// the window becomes the ROB, and the model's commit, completion and issue
// stages, run without a SLIQ, are exactly this core's. Config, its content
// hash and its wire form stay the in-order core's own.
package inorder

import (
	"fmt"

	"dkip/internal/engine"
	"dkip/internal/mem"
	"dkip/internal/ooo"
	"dkip/internal/pipeline"
	"dkip/internal/predictor"
)

// Config describes one in-order core instance.
type Config struct {
	// Name labels the configuration in reports (e.g. "C920").
	Name string

	// Widths; zero values default to 2 (a dual-issue core).
	FetchWidth, RenameWidth, IssueWidth, CommitWidth int

	// FrontEndDepth is the fetch-to-rename latency in cycles (default 8,
	// matching the C920's long front end); RedirectPenalty the additional
	// penalty after a mispredicted branch resolves (default 2).
	FrontEndDepth, RedirectPenalty int

	// QueueSize is the unified issue queue's capacity (default 8); issue is
	// strictly oldest-first, so a stalled head blocks everything behind it.
	// Window bounds in-flight instructions between rename and in-order
	// retirement (default 32; issued but incomplete instructions hold their
	// slots). LSQSize bounds in-flight memory operations (default 16),
	// MemPorts the cache ports (default 2), and MSHRs the outstanding
	// off-chip misses (zero means unlimited).
	QueueSize, Window, LSQSize, MemPorts, MSHRs int

	// FU selects the functional-unit complement and Mem the memory
	// hierarchy; zero values mean pipeline.DefaultFUConfig and
	// mem.DefaultConfig.
	FU  pipeline.FUConfig
	Mem mem.Config

	// NewPredictor constructs the branch predictor; nil defaults to a
	// 4096-entry gshare — closer to the C920's modest BHT than the paper
	// machines' perceptron. Function fields cannot be serialized: excluded
	// from JSON (the serve layer's wire format) just as the content hash
	// skips them.
	NewPredictor func() predictor.Predictor `json:"-"`
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
	def(&c.FetchWidth, 2)
	def(&c.RenameWidth, 2)
	def(&c.IssueWidth, 2)
	def(&c.CommitWidth, 2)
	def(&c.FrontEndDepth, 8)
	def(&c.RedirectPenalty, 2)
	def(&c.QueueSize, 8)
	def(&c.Window, 32)
	def(&c.LSQSize, 16)
	def(&c.MemPorts, 2)
	if c.FU == (pipeline.FUConfig{}) {
		c.FU = pipeline.DefaultFUConfig()
	}
	c.Mem = c.Mem.OrDefault()
	if c.NewPredictor == nil {
		c.NewPredictor = func() predictor.Predictor {
			return predictor.NewGshare(4096)
		}
	}
	return c
}

// Defaults is WithDefaults behind the engine.Config contract.
func (c Config) Defaults() engine.Config { return c.WithDefaults() }

// Params returns the engine parameters of the configuration: those of the
// out-of-order model it maps onto.
func (c Config) Params() engine.Params { return c.oooConfig().Params() }

// InFlight is the scoreboarded window.
func (c Config) InFlight() uint64 { return uint64(c.Window) }

// oooConfig maps the configuration onto the out-of-order model. The in-order
// flag is the whole microarchitecture: the queue only ever offers its oldest
// instruction, so an unready head blocks issue entirely, and the ROB is the
// scoreboarded window retired in order.
func (c Config) oooConfig() ooo.Config {
	return ooo.Config{
		Name:            c.Name,
		FetchWidth:      c.FetchWidth,
		RenameWidth:     c.RenameWidth,
		IssueWidth:      c.IssueWidth,
		CommitWidth:     c.CommitWidth,
		FrontEndDepth:   c.FrontEndDepth,
		RedirectPenalty: c.RedirectPenalty,
		ROBSize:         c.Window,
		IQSize:          c.QueueSize,
		InOrder:         true,
		LSQSize:         c.LSQSize,
		MemPorts:        c.MemPorts,
		MSHRs:           c.MSHRs,
		FU:              c.FU,
		Mem:             c.Mem,
		NewPredictor:    c.NewPredictor,
	}
}

// Validate reports configuration errors, the memory hierarchy's included.
func (c Config) Validate() error {
	if err := engine.CheckNonNegative(c); err != nil {
		return fmt.Errorf("inorder: %s: %w", c.Name, err)
	}
	if c.Window <= 0 {
		return fmt.Errorf("inorder: %s: Window must be positive", c.Name)
	}
	if c.Window < c.QueueSize {
		return fmt.Errorf("inorder: %s: Window %d smaller than QueueSize %d", c.Name, c.Window, c.QueueSize)
	}
	if err := engine.CheckArena(c, "Window"); err != nil {
		return fmt.Errorf("inorder: %s: %w", c.Name, err)
	}
	if err := c.Mem.OrDefault().Validate(); err != nil {
		return fmt.Errorf("inorder: %s: %w", c.Name, err)
	}
	return nil
}

// C920 approximates one XuanTie C920 core of the SG2042: dual-issue,
// 64KB/1MB caches with a long memory latency (the socket's DDR4 path).
func C920() Config {
	return Config{
		Name: "C920",
		Mem: mem.Config{
			Name:   "SG2042",
			L1Size: 64 << 10, L1Latency: 3, L1Assoc: 4,
			L2Size: 1 << 20, L2Latency: 18, L2Assoc: 16,
			MemLatency: 240,
		},
	}
}
