package pipeline

import (
	"fmt"
	"strings"
)

// HistBucket is the issue-latency histogram bucket width, in cycles.
const HistBucket = 25

// HistMax is the largest latency tracked with full resolution; larger values
// land in the overflow bucket.
const HistMax = 1200

// Histogram counts decode→issue distances, reproducing Figure 3. The JSON
// tags define the encoding used by internal/sim's Result records.
type Histogram struct {
	Buckets   [HistMax/HistBucket + 1]uint64 `json:"buckets"`
	Total     uint64                         `json:"total"`
	SumCycles uint64                         `json:"sum_cycles"`
}

// Observe adds one distance sample (in cycles).
func (h *Histogram) Observe(cycles int64) {
	if cycles < 0 {
		cycles = 0
	}
	i := int(cycles) / HistBucket
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
	h.Total++
	h.SumCycles += uint64(cycles)
}

// Frac returns the fraction of samples in bucket i.
func (h *Histogram) Frac(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Buckets[i]) / float64(h.Total)
}

// FracRange returns the fraction of samples with distance in [lo, hi) cycles.
func (h *Histogram) FracRange(lo, hi int) float64 {
	if h.Total == 0 {
		return 0
	}
	var n uint64
	for i := range h.Buckets {
		b0 := i * HistBucket
		if b0 >= lo && b0 < hi {
			n += h.Buckets[i]
		}
	}
	return float64(n) / float64(h.Total)
}

// Mean returns the mean distance in cycles.
func (h *Histogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.SumCycles) / float64(h.Total)
}

// String renders non-empty buckets as "lo-hi:percent" pairs.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.1f%%", i*HistBucket, 100*h.Frac(i))
	}
	return b.String()
}

// Stats aggregates the outcome of one simulation run. The JSON tags define
// the encoding used by internal/sim's Result records. Stats deliberately has
// no reference-typed fields: a value copy is a deep copy, which the
// memoizing run cache relies on when handing results to multiple callers.
type Stats struct {
	// Cycles is the simulated cycle count; Committed the retired
	// instruction count. IPC() is their ratio.
	Cycles    int64  `json:"cycles"`
	Committed uint64 `json:"committed"`
	Fetched   uint64 `json:"fetched"`

	// Branches and Mispredicts count committed conditional branches.
	Branches    uint64 `json:"branches"`
	Mispredicts uint64 `json:"mispredicts"`

	// Loads by satisfying level: [L1, L2, Memory].
	LoadLevel [3]uint64 `json:"load_level"`

	// Structural stall cycles observed at rename.
	StallROBFull int64 `json:"stall_rob_full"`
	StallIQFull  int64 `json:"stall_iq_full"`
	StallLSQFull int64 `json:"stall_lsq_full"`

	// IssueLat is the decode→issue distance histogram (Figure 3).
	IssueLat Histogram `json:"issue_lat"`

	// Model-specific counters (D-KIP); zero elsewhere.

	// CPCommitted counts instructions retired directly by the Cache
	// Processor; MPCommitted those processed via the LLIB and Memory
	// Processor.
	CPCommitted uint64 `json:"cp_committed"`
	MPCommitted uint64 `json:"mp_committed"`
	// MaxLLIBInstrs and MaxLLIBRegs track the high-water occupancy of
	// each LLIB and its register file (Figures 13/14): [int, fp].
	MaxLLIBInstrs [2]int `json:"max_llib_instrs"`
	MaxLLIBRegs   [2]int `json:"max_llib_regs"`
	// LLIBFullStalls counts Analyze stalls due to a full LLIB.
	LLIBFullStalls int64 `json:"llib_full_stalls"`
	// AnalyzeWaitStalls counts Analyze stalls waiting for a short-latency
	// instruction to write back (§3.2 reports ~0.7% IPC impact).
	AnalyzeWaitStalls int64 `json:"analyze_wait_stalls"`
	// Checkpoints counts checkpoints taken; Recoveries counts rollbacks.
	Checkpoints uint64 `json:"checkpoints"`
	Recoveries  uint64 `json:"recoveries"`
	// LLRFBankConflicts counts one-cycle LLRF read stalls.
	LLRFBankConflicts int64 `json:"llrf_bank_conflicts"`
}

// Add folds o into s, as a sampled run folds its intervals into one
// result: counters add, and the high-water marks MaxLLIBInstrs and
// MaxLLIBRegs take the larger value.
func (s *Stats) Add(o *Stats) {
	s.Cycles += o.Cycles
	s.Committed += o.Committed
	s.Fetched += o.Fetched
	s.Branches += o.Branches
	s.Mispredicts += o.Mispredicts
	for i := range s.LoadLevel {
		s.LoadLevel[i] += o.LoadLevel[i]
	}
	s.StallROBFull += o.StallROBFull
	s.StallIQFull += o.StallIQFull
	s.StallLSQFull += o.StallLSQFull
	for i := range s.IssueLat.Buckets {
		s.IssueLat.Buckets[i] += o.IssueLat.Buckets[i]
	}
	s.IssueLat.Total += o.IssueLat.Total
	s.IssueLat.SumCycles += o.IssueLat.SumCycles
	s.CPCommitted += o.CPCommitted
	s.MPCommitted += o.MPCommitted
	for i := range s.MaxLLIBInstrs {
		s.MaxLLIBInstrs[i] = max(s.MaxLLIBInstrs[i], o.MaxLLIBInstrs[i])
		s.MaxLLIBRegs[i] = max(s.MaxLLIBRegs[i], o.MaxLLIBRegs[i])
	}
	s.LLIBFullStalls += o.LLIBFullStalls
	s.AnalyzeWaitStalls += o.AnalyzeWaitStalls
	s.Checkpoints += o.Checkpoints
	s.Recoveries += o.Recoveries
	s.LLRFBankConflicts += o.LLRFBankConflicts
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per committed branch.
func (s *Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// MemoryLoadFrac returns the fraction of loads satisfied by main memory.
func (s *Stats) MemoryLoadFrac() float64 {
	total := s.LoadLevel[0] + s.LoadLevel[1] + s.LoadLevel[2]
	if total == 0 {
		return 0
	}
	return float64(s.LoadLevel[2]) / float64(total)
}

// CPFraction returns the fraction of committed instructions the Cache
// Processor retired directly (D-KIP only; §4.4 reports 67–77% for SpecFP).
func (s *Stats) CPFraction() float64 {
	total := s.CPCommitted + s.MPCommitted
	if total == 0 {
		return 0
	}
	return float64(s.CPCommitted) / float64(total)
}

// String summarizes the run for logs and examples.
func (s *Stats) String() string {
	return fmt.Sprintf("cycles=%d committed=%d IPC=%.3f mispredict/branch=%.3f memLoads=%.1f%%",
		s.Cycles, s.Committed, s.IPC(), s.MispredictRate(), 100*s.MemoryLoadFrac())
}
