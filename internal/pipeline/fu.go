package pipeline

import (
	"fmt"

	"dkip/internal/isa"
)

// FUConfig gives the number of functional units per class, mirroring
// Table 2: 4 ALUs, 1 integer multiplier, 4 FP adders, 1 FP multiplier/divider.
type FUConfig struct {
	ALU      int // integer ALU: IntALU, Branch, Nop, and address generation
	IntMul   int
	FPAdd    int
	FPMulDiv int // shared multiplier/divider; divides occupy it unpipelined
}

// DefaultFUConfig returns Table 2's functional-unit complement.
func DefaultFUConfig() FUConfig {
	return FUConfig{ALU: 4, IntMul: 1, FPAdd: 4, FPMulDiv: 1}
}

// WideFUConfig returns an abundant complement used for the limit studies of
// Figures 1–3, where only the ROB may cause stalls.
func WideFUConfig() FUConfig {
	return FUConfig{ALU: 8, IntMul: 4, FPAdd: 8, FPMulDiv: 4}
}

// FUPool arbitrates functional units cycle by cycle. Pipelined classes admit
// one new operation per unit per cycle; the FP divider holds its unit for the
// full operation latency.
type FUPool struct {
	cfg FUConfig

	cycle       int64
	usedALU     int
	usedIntMul  int
	usedFPAdd   int
	usedFPMul   int
	divBusyTill []int64 // per FPMulDiv unit
}

// MaxFPMulDiv bounds FUConfig.FPMulDiv, the one unit count a pool
// allocates by: it keeps a busy-until cycle per FP multiplier/divider and
// scans them on every FP multiply and divide. Table 2 has one; the limit
// studies have four.
const MaxFPMulDiv = 64

// Check reports a unit count NewFUPool cannot build a pool from, or nil.
func (c FUConfig) Check() error {
	if c.FPMulDiv > MaxFPMulDiv {
		return fmt.Errorf("FPMulDiv %d is over the limit of %d (pipeline.MaxFPMulDiv)", c.FPMulDiv, MaxFPMulDiv)
	}
	return nil
}

// NewFUPool builds a pool from the configuration. Zero-valued unit counts
// are treated as 1 to keep degenerate configs runnable.
func NewFUPool(cfg FUConfig) *FUPool {
	if cfg.ALU <= 0 {
		cfg.ALU = 1
	}
	if cfg.IntMul <= 0 {
		cfg.IntMul = 1
	}
	if cfg.FPAdd <= 0 {
		cfg.FPAdd = 1
	}
	if cfg.FPMulDiv <= 0 {
		cfg.FPMulDiv = 1
	}
	return &FUPool{cfg: cfg, divBusyTill: make([]int64, cfg.FPMulDiv)}
}

// NewCycle resets per-cycle usage counters; call once per simulated cycle.
//
//dkip:hotpath
func (f *FUPool) NewCycle(cycle int64) {
	f.cycle = cycle
	f.usedALU = 0
	f.usedIntMul = 0
	f.usedFPAdd = 0
	f.usedFPMul = 0
}

// TryIssue claims a unit for op in the current cycle, returning false when
// all units of the class are busy.
//
//dkip:hotpath
func (f *FUPool) TryIssue(op isa.Op) bool {
	switch op {
	case isa.Nop, isa.IntALU, isa.Branch, isa.Load, isa.Store:
		if f.usedALU >= f.cfg.ALU {
			return false
		}
		f.usedALU++
		return true
	case isa.IntMul:
		if f.usedIntMul >= f.cfg.IntMul {
			return false
		}
		f.usedIntMul++
		return true
	case isa.FPAdd:
		if f.usedFPAdd >= f.cfg.FPAdd {
			return false
		}
		f.usedFPAdd++
		return true
	case isa.FPMul:
		// Pipelined issue, but the unit must not be held by a divide.
		for i := range f.divBusyTill {
			if f.divBusyTill[i] <= f.cycle {
				if f.usedFPMul >= f.cfg.FPMulDiv {
					return false
				}
				f.usedFPMul++
				return true
			}
		}
		return false
	case isa.FPDiv:
		for i := range f.divBusyTill {
			if f.divBusyTill[i] <= f.cycle {
				f.divBusyTill[i] = f.cycle + int64(isa.FPDiv.Latency())
				return true
			}
		}
		return false
	}
	return true
}

// Reset clears all unit state.
func (f *FUPool) Reset() {
	f.NewCycle(0)
	for i := range f.divBusyTill {
		f.divBusyTill[i] = 0
	}
}
