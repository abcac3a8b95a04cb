// Package mem models the memory hierarchy of the paper: set-associative LRU
// caches in front of a fixed-latency main memory.
//
// The hierarchy reproduces the six configurations of Table 1 (L1-2 through
// MEM-1000) and the L2 size sweep of Figures 11/12 (64KB–4MB). Access returns
// the latency a load observes and updates cache state; that is the only
// interface the processor models need.
package mem

import "fmt"

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	name      string
	sizeBytes int
	lineBytes int
	assoc     int
	numSets   int
	setShift  uint // log2(lineBytes)
	setMask   uint64
	tagShift  uint // log2(numSets): line-number bits consumed by the index

	// The per-way state is stored flat, indexed set*assoc+way: one
	// allocation per array and contiguous scans within a set, instead of
	// a pointer dereference per set. tags holds the line tag; lru holds a
	// per-set logical clock (larger = more recently used).
	tags  []uint64
	valid []bool
	lru   []uint64
	clock uint64

	// Stats.
	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache. size and line are in bytes; assoc is the number of
// ways. size must be a multiple of line*assoc and all parameters powers of
// two (the usual hardware constraint); NewCache panics otherwise, since a bad
// cache geometry is a programming error in an experiment definition.
// Config.Validate reports the same errors for a hierarchy's caches.
func NewCache(name string, size, line, assoc int) *Cache {
	if err := checkGeometry(name, size, line, assoc); err != nil {
		panic("mem: " + err.Error())
	}
	sets := size / (line * assoc)
	c := &Cache{
		name:      name,
		sizeBytes: size,
		lineBytes: line,
		assoc:     assoc,
		numSets:   sets,
		setShift:  uint(log2(line)),
		setMask:   uint64(sets - 1),
		tagShift:  uint(log2(sets)),
	}
	c.tags = make([]uint64, sets*assoc)
	c.valid = make([]bool, sets*assoc)
	c.lru = make([]uint64, sets*assoc)
	return c
}

// MaxCacheLines bounds the lines of one cache, the ways NewCache allocates
// a tag, a valid flag and an LRU clock for: 17 bytes a line, so 68 MiB of
// state at the limit, which a 256 MiB cache of 64-byte lines reaches. The
// largest cache the repository builds, the 4 MiB L2 of Figures 11 and 12,
// has 65,536 lines.
const MaxCacheLines = 1 << 22

// checkGeometry reports why NewCache cannot build a cache, or nil.
func checkGeometry(name string, size, line, assoc int) error {
	if size <= 0 || line <= 0 || assoc <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry (size=%d line=%d assoc=%d)", name, size, line, assoc)
	}
	// Bounding line and assoc by size first keeps line*assoc from wrapping.
	if line > size || assoc > size/line || size%(line*assoc) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by line %d × assoc %d", name, size, line, assoc)
	}
	if !powerOfTwo(size) || !powerOfTwo(line) || !powerOfTwo(assoc) {
		return fmt.Errorf("cache %q: geometry must be powers of two", name)
	}
	if lines := size / line; lines > MaxCacheLines {
		return fmt.Errorf("cache %q: %d lines are over the limit of %d (mem.MaxCacheLines)", name, lines, MaxCacheLines)
	}
	return nil
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// Name returns the cache's configured name (e.g. "L1D").
func (c *Cache) Name() string { return c.name }

// Size returns the capacity in bytes.
func (c *Cache) Size() int { return c.sizeBytes }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return c.lineBytes }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.numSets }

// index returns the first flat way slot of addr's set and its tag. The way
// group is c.tags[base : base+c.assoc] (same for valid and lru).
func (c *Cache) index(addr uint64) (base int, tag uint64) {
	line := addr >> c.setShift
	return int(line&c.setMask) * c.assoc, line >> c.tagShift
}

// Lookup reports whether addr hits without modifying any state (no LRU
// update, no fill, no stats). The D-KIP's Analyze stage uses this to model
// the L2 tag probe that classifies a load as short- or long-latency.
//
//dkip:hotpath
func (c *Cache) Lookup(addr uint64) bool {
	base, tag := c.index(addr)
	for w := base; w < base+c.assoc; w++ {
		if c.valid[w] && c.tags[w] == tag {
			return true
		}
	}
	return false
}

// Access performs a demand access: on a hit the line's recency is refreshed;
// on a miss the LRU way is replaced. It returns whether the access hit.
//
//dkip:hotpath
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	c.clock++
	base, tag := c.index(addr)
	for w := base; w < base+c.assoc; w++ {
		if c.valid[w] && c.tags[w] == tag {
			c.lru[w] = c.clock
			return true
		}
	}
	c.Misses++
	// Fill: choose an invalid way, else the least recently used.
	victim := base
	var best uint64 = ^uint64(0)
	for w := base; w < base+c.assoc; w++ {
		if !c.valid[w] {
			victim = w
			break
		}
		if c.lru[w] < best {
			best = c.lru[w]
			victim = w
		}
	}
	c.valid[victim] = true
	c.tags[victim] = tag
	c.lru[victim] = c.clock
	return false
}

// empty reports whether no way of the cache is valid; a nil cache (a
// perfect or absent level) holds nothing.
func (c *Cache) empty() bool {
	if c == nil {
		return true
	}
	for _, v := range c.valid {
		if v {
			return false
		}
	}
	return true
}

// fill places addr's line as a demand miss would, for a walk in which every
// access misses: the clock ticks and the line takes way taken[set] mod assoc
// of its set, which is the first invalid way while the set has one and its
// least recently used way after. taken counts the lines each set took so
// far. Access statistics are not counted.
func (c *Cache) fill(addr uint64, taken []uint32) {
	c.clock++
	line := addr >> c.setShift
	set := line & c.setMask
	w := int(set)*c.assoc + int(taken[set]&uint32(c.assoc-1))
	taken[set]++
	c.tags[w] = line >> c.tagShift
	c.valid[w] = true
	c.lru[w] = c.clock
}

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.tags[i] = 0
		c.lru[i] = 0
	}
	c.clock = 0
	c.Accesses = 0
	c.Misses = 0
}
