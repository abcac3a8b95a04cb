package mem

import "fmt"

// Level identifies where in the hierarchy an access was satisfied.
type Level uint8

// Hierarchy levels.
const (
	// LevelL1 means the access hit in the first-level cache.
	LevelL1 Level = iota
	// LevelL2 means the access missed L1 and hit the second-level cache.
	LevelL2
	// LevelMemory means the access went to main memory.
	LevelMemory
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMemory:
		return "MEM"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Config describes a memory hierarchy, mirroring Table 1 of the paper.
// A zero L1Size or L2Size means "infinite" at that level: every access hits
// there (used for the perfect-cache limit configurations).
type Config struct {
	// Name labels the configuration in tables (e.g. "MEM-400").
	Name string
	// L1Size is the L1 capacity in bytes; 0 means a perfect (infinite) L1.
	L1Size int
	// L1Latency is the L1 hit latency in cycles.
	L1Latency int
	// L2Size is the L2 capacity in bytes; 0 with L2Latency>0 means a
	// perfect L2; L2Latency==0 means there is no L2 (L1 misses go to
	// memory).
	L2Size int
	// L2Latency is the L2 hit latency in cycles (0 = no L2 level).
	L2Latency int
	// MemLatency is the main-memory access latency in cycles (0 = no
	// misses escape the last cache level, i.e. that level is perfect).
	MemLatency int
	// LineSize is the cache line size in bytes; defaults to 64.
	LineSize int
	// L1Assoc and L2Assoc default to 2 and 8 respectively.
	L1Assoc, L2Assoc int
	// PrefetchDegree enables a next-N-line prefetcher at the L2: every
	// demand access that reaches main memory also fills the following
	// PrefetchDegree lines into the L2. Zero disables (the paper's
	// machines have no prefetcher). Prefetch fills are modeled as free in
	// time — an optimistic prefetcher, which makes the comparison against
	// the D-KIP conservative.
	PrefetchDegree int
}

// Table1Configs returns the six memory subsystems of Table 1, used for the
// memory-wall limit study (Figures 1 and 2).
func Table1Configs() []Config {
	return []Config{
		{Name: "L1-2", L1Size: 0, L1Latency: 2},
		{Name: "L2-11", L1Size: 32 << 10, L1Latency: 2, L2Size: 0, L2Latency: 11},
		{Name: "L2-21", L1Size: 32 << 10, L1Latency: 2, L2Size: 0, L2Latency: 21},
		{Name: "MEM-100", L1Size: 32 << 10, L1Latency: 2, L2Size: 512 << 10, L2Latency: 11, MemLatency: 100},
		{Name: "MEM-400", L1Size: 32 << 10, L1Latency: 2, L2Size: 512 << 10, L2Latency: 11, MemLatency: 400},
		{Name: "MEM-1000", L1Size: 32 << 10, L1Latency: 2, L2Size: 512 << 10, L2Latency: 11, MemLatency: 1000},
	}
}

// DefaultConfig returns the paper's default memory subsystem (Table 2/3):
// 32KB L1 with 2-cycle hits, 512KB L2 with 11-cycle hits, 400-cycle memory.
func DefaultConfig() Config {
	return Config{
		Name:       "MEM-400",
		L1Size:     32 << 10,
		L1Latency:  2,
		L2Size:     512 << 10,
		L2Latency:  11,
		MemLatency: 400,
	}
}

// WithL2Size returns a copy of c with the L2 capacity replaced, renamed to
// reflect the new size. Used by the cache sweep of Figures 11/12.
func (c Config) WithL2Size(bytes int) Config {
	c.L2Size = bytes
	c.Name = fmt.Sprintf("L2-%dKB", bytes>>10)
	return c
}

// WithDefaults returns the configuration with zero geometry fields (line
// size, associativities) replaced by their defaults. The Hierarchy applies it
// implicitly, and so does each processor configuration's WithDefaults, which
// internal/sim applies before hashing so equivalent hierarchies memoize as
// the same machine.
func (c Config) WithDefaults() Config {
	if c.LineSize == 0 {
		c.LineSize = 64
	}
	if c.L1Assoc == 0 {
		c.L1Assoc = 2
	}
	if c.L2Assoc == 0 {
		c.L2Assoc = 8
	}
	return c
}

// OrDefault returns the configuration with its geometry defaults applied,
// or DefaultConfig when the configuration is unset (zero L1 latency): the
// memory defaults every processor configuration's WithDefaults applies.
func (c Config) OrDefault() Config {
	if c.L1Latency == 0 {
		c = DefaultConfig()
	}
	return c.WithDefaults()
}

// Validate reports an error for nonsensical configurations, and for any
// configuration NewHierarchy cannot build: a cache geometry NewCache
// rejects, checked with the geometry defaults applied for exactly the
// caches NewHierarchy builds.
func (c Config) Validate() error {
	if c.L1Latency <= 0 {
		return fmt.Errorf("mem: config %q: L1 latency must be positive", c.Name)
	}
	if c.L2Latency < 0 || c.MemLatency < 0 {
		return fmt.Errorf("mem: config %q: negative latency", c.Name)
	}
	if c.MemLatency > 0 && c.L2Latency == 0 && c.L1Size == 0 {
		return fmt.Errorf("mem: config %q: perfect L1 cannot miss to memory", c.Name)
	}
	d := c.WithDefaults()
	if d.L1Size > 0 {
		if err := checkGeometry("L1", d.L1Size, d.LineSize, d.L1Assoc); err != nil {
			return fmt.Errorf("mem: config %q: %w", c.Name, err)
		}
	}
	if d.L2Latency > 0 && d.L2Size > 0 {
		if err := checkGeometry("L2", d.L2Size, d.LineSize, d.L2Assoc); err != nil {
			return fmt.Errorf("mem: config %q: %w", c.Name, err)
		}
	}
	return nil
}

// Hierarchy simulates the cache hierarchy. It is not safe for concurrent use;
// each simulated processor owns one.
type Hierarchy struct {
	cfg Config
	l1  *Cache // nil when perfect
	l2  *Cache // nil when absent or perfect

	// Stats per satisfaction level.
	Count [3]uint64
	// Prefetches counts lines the next-line prefetcher filled.
	Prefetches uint64
}

// NewHierarchy builds the hierarchy for a configuration. It panics on an
// invalid configuration (experiment definitions are code, not user input).
func NewHierarchy(cfg Config) *Hierarchy {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg}
	if cfg.L1Size > 0 {
		h.l1 = NewCache("L1", cfg.L1Size, cfg.LineSize, cfg.L1Assoc)
	}
	if cfg.L2Latency > 0 && cfg.L2Size > 0 {
		h.l2 = NewCache("L2", cfg.L2Size, cfg.LineSize, cfg.L2Assoc)
	}
	return h
}

// Config returns the configuration the hierarchy was built from (with
// defaults applied).
func (h *Hierarchy) Config() Config { return h.cfg }

// Access performs a demand access (load or store fill) and returns the
// latency observed and the level that satisfied it.
//
//dkip:hotpath
func (h *Hierarchy) Access(addr uint64) (latency int, level Level) {
	// Perfect L1.
	if h.l1 == nil {
		h.Count[LevelL1]++
		return h.cfg.L1Latency, LevelL1
	}
	if h.l1.Access(addr) {
		h.Count[LevelL1]++
		return h.cfg.L1Latency, LevelL1
	}
	// L1 miss.
	if h.cfg.L2Latency > 0 {
		if h.l2 == nil { // perfect L2
			h.Count[LevelL2]++
			return h.cfg.L2Latency, LevelL2
		}
		if h.l2.Access(addr) {
			h.Count[LevelL2]++
			return h.cfg.L2Latency, LevelL2
		}
		if h.cfg.MemLatency == 0 {
			// Last level declared perfect beyond L2 — treat L2 miss
			// as L2 fill at memoryless cost (not used by Table 1
			// configs, but keeps the model total).
			h.Count[LevelL2]++
			return h.cfg.L2Latency, LevelL2
		}
		h.Count[LevelMemory]++
		h.prefetch(addr)
		return h.cfg.MemLatency, LevelMemory
	}
	// No L2: L1 miss goes to memory (or is perfect if no memory declared).
	if h.cfg.MemLatency == 0 {
		h.Count[LevelL1]++
		return h.cfg.L1Latency, LevelL1
	}
	h.Count[LevelMemory]++
	return h.cfg.MemLatency, LevelMemory
}

// prefetch fills the next PrefetchDegree lines after a demand miss into the
// L2 (next-N-line prefetching). Lines already resident are refreshed, which
// is harmless; new lines may evict — prefetch pollution is modeled.
func (h *Hierarchy) prefetch(addr uint64) {
	if h.cfg.PrefetchDegree <= 0 || h.l2 == nil {
		return
	}
	line := uint64(h.cfg.LineSize)
	base := addr &^ (line - 1)
	for i := 1; i <= h.cfg.PrefetchDegree; i++ {
		next := base + uint64(i)*line
		if !h.l2.Lookup(next) {
			h.l2.Access(next)
			h.Prefetches++
		}
	}
}

// ProbeLongLatency reports, without disturbing cache or statistics state,
// whether a demand access to addr would go to main memory. The D-KIP Analyze
// stage uses this as the L2 tag-array check that classifies loads.
//
//dkip:hotpath
func (h *Hierarchy) ProbeLongLatency(addr uint64) bool {
	if h.cfg.MemLatency == 0 {
		return false
	}
	if h.l1 != nil && h.l1.Lookup(addr) {
		return false
	}
	if h.l1 == nil {
		return false
	}
	if h.cfg.L2Latency > 0 {
		if h.l2 == nil {
			return false
		}
		return !h.l2.Lookup(addr)
	}
	return true
}

// L1 returns the L1 cache, or nil when the level is perfect.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the L2 cache, or nil when absent/perfect.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Accesses returns the total number of demand accesses.
func (h *Hierarchy) Accesses() uint64 {
	return h.Count[LevelL1] + h.Count[LevelL2] + h.Count[LevelMemory]
}

// MemoryFraction returns the fraction of accesses that reached main memory.
func (h *Hierarchy) MemoryFraction() float64 {
	total := h.Accesses()
	if total == 0 {
		return 0
	}
	return float64(h.Count[LevelMemory]) / float64(total)
}

// Reset clears cache contents and statistics.
func (h *Hierarchy) Reset() {
	if h.l1 != nil {
		h.l1.Reset()
	}
	if h.l2 != nil {
		h.l2.Reset()
	}
	h.Count = [3]uint64{}
}

// ResetStats clears access statistics while keeping cache contents — used
// after prewarming.
func (h *Hierarchy) ResetStats() {
	if h.l1 != nil {
		h.l1.Accesses, h.l1.Misses = 0, 0
	}
	if h.l2 != nil {
		h.l2.Accesses, h.l2.Misses = 0, 0
	}
	h.Count = [3]uint64{}
}

// Warm walks every cache line of the given [base, base+size) ranges through
// the hierarchy and then clears statistics, leaving the caches in the steady
// state a long-running program would have established. Ranges are walked in
// order, so later ranges win the capacity contest, as a program's hottest
// data would.
//
// Without the prefetcher, each range is first cut to its last max(L1, L2)
// bytes, which leaves the same state. When, in addition, no way of either
// level is valid yet and no two of the cut ranges share a line, every access
// of the walk would miss at every level it reaches, so Warm fills each line
// straight into those levels instead of sending it through their hit and
// victim scans: the line takes the way a miss into an LRU set takes, and
// the state is the walk's, byte for byte. Otherwise (a warm cache, a shared
// line, or the prefetcher on) Warm walks the lines through Access.
func (h *Hierarchy) Warm(ranges [][2]uint64) {
	if h.l1 == nil {
		h.ResetStats() // perfect L1: no cache state to establish
		return
	}
	line := uint64(h.cfg.LineSize)
	var l1Taken, l2Taken []uint32
	if h.fillsDirectly(ranges) {
		l1Taken = make([]uint32, h.l1.numSets)
		if h.l2 != nil {
			l2Taken = make([]uint32, h.l2.numSets)
		}
	}
	for _, r := range ranges {
		base, size := h.warmSpan(r)
		for a := base; a < base+size; a += line {
			if l1Taken == nil {
				h.Access(a)
				continue
			}
			h.l1.fill(a, l1Taken)
			if h.l2 != nil {
				h.l2.fill(a, l2Taken)
			}
		}
	}
	h.ResetStats()
}

// warmSpan returns the part of r that Warm walks. A sequential walk of
// unique lines leaves only the tail of each range resident: any window of
// sets×assoc consecutive lines touches every set exactly assoc times, fully
// displacing whatever was there, with LRU order equal to walk order. Walking
// just the last max(L1,L2) bytes therefore produces the identical final
// state, so a multi-MB footprint warms in O(cache size) instead of
// O(footprint). The cut is off when the prefetcher is on: prefetch fills
// follow a miss cadence whose phase depends on the walk's start line, so
// truncation could perturb per-set LRU order.
func (h *Hierarchy) warmSpan(r [2]uint64) (base, size uint64) {
	base, size = r[0], r[1]
	if h.cfg.PrefetchDegree != 0 {
		return base, size
	}
	keep := uint64(h.l1.Size())
	if h.l2 != nil && uint64(h.l2.Size()) > keep {
		keep = uint64(h.l2.Size())
	}
	if size > keep {
		// Skip whole lines only: the truncated walk must visit a suffix
		// of exactly the addresses the full walk would, or a size that is
		// not a line multiple would phase-shift every remaining access
		// onto different lines.
		line := uint64(h.cfg.LineSize)
		cut := (size - keep) / line * line
		base += cut
		size -= cut
	}
	return base, size
}

// fillsDirectly reports whether every access of Warm's walk over ranges
// would miss at every level: the prefetcher is off, no way of either level
// is valid, and no two walked spans share a line. A span's lines are the
// ones the walk visits: from base's line, one per step of a line while the
// address stays below base+size, which is ceil(size/line) lines and on an
// unaligned base can stop a line short of the span's last byte. A span
// whose end wraps counts as shared.
func (h *Hierarchy) fillsDirectly(ranges [][2]uint64) bool {
	if h.cfg.PrefetchDegree != 0 || !h.l1.empty() || !h.l2.empty() {
		return false
	}
	line := uint64(h.cfg.LineSize)
	// span returns the lines the walk visits in r as [first, first+n).
	span := func(r [2]uint64) (first, n uint64, wraps bool) {
		base, size := h.warmSpan(r)
		if size == 0 {
			return 0, 0, false
		}
		return base / line, (size-1)/line + 1, base+size < base
	}
	for i, r := range ranges {
		first, n, wraps := span(r)
		if wraps {
			return false
		}
		for _, o := range ranges[:i] {
			oFirst, oN, _ := span(o)
			if n > 0 && oN > 0 && first < oFirst+oN && oFirst < first+n {
				return false
			}
		}
	}
	return true
}
