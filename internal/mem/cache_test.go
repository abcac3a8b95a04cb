package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache("t", 4096, 64, 2)
	if c.Access(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access to same line should hit")
	}
	if !c.Access(0x1004) {
		t.Error("access within the same line should hit")
	}
	if c.Access(0x1040) {
		t.Error("next line should miss")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Errorf("accesses=%d misses=%d, want 4/2", c.Accesses, c.Misses)
	}
	if mr := c.MissRate(); mr != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", mr)
	}
}

func TestCacheGeometry(t *testing.T) {
	c := NewCache("t", 8192, 64, 4)
	if c.Sets() != 32 || c.Assoc() != 4 || c.LineSize() != 64 || c.Size() != 8192 {
		t.Errorf("geometry: sets=%d assoc=%d line=%d size=%d", c.Sets(), c.Assoc(), c.LineSize(), c.Size())
	}
	if c.Name() != "t" {
		t.Errorf("name = %q", c.Name())
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	cases := [][3]int{
		{0, 64, 2},    // zero size
		{4096, 0, 2},  // zero line
		{4096, 64, 0}, // zero assoc
		{4000, 64, 2}, // not divisible
		{4096, 48, 2}, // non power of two line
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%v) should panic", c)
				}
			}()
			NewCache("bad", c[0], c[1], c[2])
		}()
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct-conflict set: 2-way, addresses mapping to the same set.
	c := NewCache("t", 2*64*4, 64, 2) // 4 sets, 2 ways
	setStride := uint64(4 * 64)       // same set every 4 lines
	a, b, d := uint64(0), setStride, 2*setStride

	c.Access(a) // miss, fill
	c.Access(b) // miss, fill — set now holds {a,b}
	c.Access(a) // hit, refreshes a — b is now LRU
	c.Access(d) // miss, evicts b
	if !c.Access(a) {
		t.Error("a should survive (recently used)")
	}
	if c.Access(b) {
		t.Error("b should have been evicted as LRU")
	}
}

func TestCacheLookupNonDestructive(t *testing.T) {
	c := NewCache("t", 4096, 64, 2)
	if c.Lookup(0x40) {
		t.Error("lookup of absent line should be false")
	}
	if c.Accesses != 0 {
		t.Error("Lookup must not count as an access")
	}
	c.Access(0x40)
	if !c.Lookup(0x40) {
		t.Error("lookup of resident line should be true")
	}
	if c.Accesses != 1 {
		t.Error("Lookup must not count as an access")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache("t", 4096, 64, 2)
	c.Access(0x40)
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Error("reset should clear stats")
	}
	if c.Lookup(0x40) {
		t.Error("reset should clear contents")
	}
}

// TestCacheAccessThenHit is the fundamental cache property: an access makes
// the line resident, so an immediate repeat hits.
func TestCacheAccessThenHit(t *testing.T) {
	c := NewCache("t", 32<<10, 64, 2)
	err := quick.Check(func(addr uint64) bool {
		c.Access(addr)
		return c.Access(addr)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

// TestCacheCapacityProperty: touching exactly as many distinct lines as the
// cache holds (in one pass, addresses chosen set-uniformly) must not exceed
// the capacity in misses on a second identical pass.
func TestCacheResidencyAfterSequentialFill(t *testing.T) {
	c := NewCache("t", 8192, 64, 2)
	lines := c.Size() / c.LineSize()
	for i := 0; i < lines; i++ {
		c.Access(uint64(i * 64))
	}
	c.Accesses, c.Misses = 0, 0
	for i := 0; i < lines; i++ {
		c.Access(uint64(i * 64))
	}
	if c.Misses != 0 {
		t.Errorf("sequential refill missed %d times; LRU should retain a full sequential set", c.Misses)
	}
}

// checkGeometry refuses a line × assoc product that would wrap, and a cache
// of more than MaxCacheLines lines, with an error rather than a panic, so
// Config.Validate can report them.
func TestCheckGeometryBounds(t *testing.T) {
	for _, c := range []struct {
		size, line, assoc int
		want              string
	}{
		{32 << 10, 1 << 32, 1 << 32, "not divisible"}, // line × assoc wraps to 0
		{1 << 40, 64, 2, "mem.MaxCacheLines"},
		{MaxCacheLines * 64, 64, 2, ""},
	} {
		err := checkGeometry("c", c.size, c.line, c.assoc)
		if (err == nil) != (c.want == "") || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("checkGeometry(%d, %d, %d) = %v, want an error naming %q", c.size, c.line, c.assoc, err, c.want)
		}
	}
}
