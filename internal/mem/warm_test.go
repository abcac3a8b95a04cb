package mem_test

import (
	"bytes"
	"testing"

	"dkip/internal/experiments"
	"dkip/internal/inorder"
	"dkip/internal/mem"
	"dkip/internal/workload"
)

// oracleWarm is Hierarchy.Warm as it was before it filled an empty
// hierarchy directly: every line of each cut range walks through Access.
// It is kept as the oracle Warm is checked against.
func oracleWarm(h *mem.Hierarchy, ranges [][2]uint64) {
	if h.L1() == nil {
		h.ResetStats()
		return
	}
	cfg := h.Config()
	line := uint64(cfg.LineSize)
	keep := uint64(0)
	if cfg.PrefetchDegree == 0 {
		keep = uint64(h.L1().Size())
		if h.L2() != nil && uint64(h.L2().Size()) > keep {
			keep = uint64(h.L2().Size())
		}
	}
	for _, r := range ranges {
		base, size := r[0], r[1]
		if keep > 0 && size > keep {
			cut := (size - keep) / line * line
			base += cut
			size -= cut
		}
		for a := base; a < base+size; a += line {
			h.Access(a)
		}
	}
	h.ResetStats()
}

// warmConfigs returns every memory configuration the repository builds:
// Table 1's six, the L2 sweep of Figures 11 and 12, the default memory and
// the C920's SG2042 memory.
func warmConfigs() []mem.Config {
	cfgs := mem.Table1Configs()
	for _, l2 := range experiments.L2Sizes {
		cfgs = append(cfgs, mem.DefaultConfig().WithL2Size(l2))
	}
	return append(cfgs, mem.DefaultConfig(), inorder.C920().Mem)
}

// checkWarm warms two hierarchies of cfg, each first driven by prewarm,
// one with Warm and one with the oracle, and fails unless their states
// match.
func checkWarm(t *testing.T, cfg mem.Config, prewarm func(*mem.Hierarchy), ranges [][2]uint64) {
	t.Helper()
	got, want := mem.NewHierarchy(cfg), mem.NewHierarchy(cfg)
	if prewarm != nil {
		prewarm(got)
		prewarm(want)
	}
	got.Warm(ranges)
	oracleWarm(want, ranges)
	if !bytes.Equal(got.SaveState(), want.SaveState()) {
		t.Fatalf("%s, ranges %#x: Warm's state differs from the line walk's", cfg.Name, ranges)
	}
	if got.Accesses() != 0 || got.Prefetches != want.Prefetches {
		t.Fatalf("%s, ranges %#x: Warm left %d accesses and %d prefetches, the walk 0 and %d",
			cfg.Name, ranges, got.Accesses(), got.Prefetches, want.Prefetches)
	}
}

// TestWarmMatchesWalk checks Warm against the line walk for every memory
// configuration the repository builds and every benchmark's warm ranges,
// all of which Warm fills directly, and for each case that makes it walk.
func TestWarmMatchesWalk(t *testing.T) {
	var benches [][][2]uint64
	for _, name := range workload.Names() {
		benches = append(benches, workload.MustNew(name).WarmRanges())
	}
	for _, cfg := range warmConfigs() {
		for i, ranges := range benches {
			if fresh := mem.NewHierarchy(cfg); fresh.L1() != nil && !fresh.FillsDirectly(ranges) {
				t.Errorf("%s on %s: Warm walks an empty hierarchy", cfg.Name, workload.Names()[i])
			}
			checkWarm(t, cfg, nil, ranges)
		}
	}

	mcf := workload.MustNew("mcf").WarmRanges()
	def, sg := mem.DefaultConfig(), inorder.C920().Mem
	prefetching := def
	prefetching.PrefetchDegree = 2
	for _, c := range []struct {
		name    string
		cfg     mem.Config
		prewarm func(*mem.Hierarchy)
		ranges  [][2]uint64
		fills   bool
	}{
		// A range that shares its last line with the one before it.
		{"shared line", def, nil, append(mcf, [2]uint64{mcf[1][0] + mcf[1][1] - 1, 4096}), false},
		// Byte ranges that overlap on an unaligned base while the lines
		// walked do not: the first range walks one line, 32 bytes short
		// of the second's.
		{"unaligned, lines disjoint", def, nil, [][2]uint64{{0x1020, 64}, {0x1040, 256}}, true},
		{"unaligned, lines shared", def, nil, [][2]uint64{{0x1020, 65}, {0x1040, 256}}, false},
		// Ranges are compared as cut: the SG2042 memory keeps the last
		// 1 MiB of a 4 MiB range.
		{"a range inside another's kept tail", sg, nil, [][2]uint64{{0x4000, 4 << 20}, {0x4000 + 4<<20 - 0x1000, 100}}, false},
		{"a range inside another's cut head", sg, nil, [][2]uint64{{0x4000, 4 << 20}, {0x5000, 100}}, true},
		{"pre-warmed", def, func(h *mem.Hierarchy) { h.Access(0x7000_0000) }, mcf, false},
		{"pre-warmed L2 only", def, func(h *mem.Hierarchy) {
			h.Access(0x7000_0000)
			h.L1().Reset()
		}, mcf, false},
		{"prefetcher on", prefetching, nil, mcf, false},
		{"empty and zero-size ranges", sg, nil, [][2]uint64{{0x40, 0}, {0x40, 0}, {0x80, 64}}, true},
	} {
		h := mem.NewHierarchy(c.cfg)
		if c.prewarm != nil {
			c.prewarm(h)
		}
		if got := h.FillsDirectly(c.ranges); got != c.fills {
			t.Errorf("%s: FillsDirectly = %v, want %v", c.name, got, c.fills)
		}
		checkWarm(t, c.cfg, c.prewarm, c.ranges)
	}
}

// FuzzWarm checks Warm against the line walk over random power-of-two
// geometries (L1 only, L1 and L2, a perfect L2, the prefetcher on or off),
// one to three ranges with unaligned bases, sizes that are zero, not a line
// multiple or larger than the caches, and ranges that share lines, on an
// empty hierarchy, a pre-warmed one, or one whose L2 alone is warm.
func FuzzWarm(f *testing.F) {
	f.Add(uint32(0x0000_1234), uint8(0), uint8(2), uint64(0x1000_0000), uint64(8<<20), uint64(0x7000_0000), uint64(64<<10), uint64(0), uint64(0))
	f.Add(uint32(0x0001_5a5a), uint8(3), uint8(1), uint64(0x1020), uint64(65), uint64(1<<63|0x20), uint64(300), uint64(0), uint64(0))
	f.Add(uint32(0x0002_7fff), uint8(0), uint8(3), uint64(0x33), uint64(5000), uint64(0x9000), uint64(0), uint64(1<<63|0x1000), uint64(777))
	f.Add(uint32(0x0003_0f0f), uint8(9), uint8(2), uint64(0), uint64(1<<20), uint64(0x40_0000), uint64(1<<20+32), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, geom uint32, prewarm, n uint8, b0, s0, b1, s1, b2, s2 uint64) {
		bits := func(shift, width uint) int { return int(geom>>shift) & (1<<width - 1) }
		line := 16 << bits(0, 2)
		cfg := mem.Config{
			Name:      "fuzz",
			L1Latency: 2,
			LineSize:  line,
			L1Assoc:   1 << bits(2, 2),
			L2Assoc:   1 << bits(4, 3),
		}
		cfg.L1Size = line * cfg.L1Assoc << bits(7, 3)
		switch bits(16, 2) {
		case 0: // L1 only
			cfg.MemLatency = 100
		case 1: // L1 and L2
			cfg.L2Size, cfg.L2Latency, cfg.MemLatency = line*cfg.L2Assoc<<bits(10, 4), 10, 100
		case 2: // a perfect L2
			cfg.L2Latency, cfg.MemLatency = 10, 100
		case 3: // L1 and L2, the prefetcher on
			cfg.L2Size, cfg.L2Latency, cfg.MemLatency = line*cfg.L2Assoc<<bits(10, 4), 10, 100
			cfg.PrefetchDegree = 1 + bits(14, 2)
		}
		// Ranges up to three times the larger cache, so some are cut. A
		// base with its top bit set is an offset from the previous base,
		// so ranges often share lines; bases stay far below the top of
		// the address space, where the walk's address would wrap.
		span := uint64(3 * max(cfg.L1Size, cfg.L2Size))
		var ranges [][2]uint64
		prev := uint64(0)
		for i, r := range [][2]uint64{{b0, s0}, {b1, s1}, {b2, s2}}[:1+int(n)%3] {
			base := r[0] & (1<<40 - 1)
			if r[0]>>63 == 1 && i > 0 {
				base = prev + r[0]%span
			}
			ranges = append(ranges, [2]uint64{base, r[1] % (span + 1)})
			prev = base
		}
		// prewarm>>1 lines are walked first; an odd prewarm then empties
		// the L1 again, leaving the L2 alone warm.
		var warm func(*mem.Hierarchy)
		if prewarm != 0 {
			warm = func(h *mem.Hierarchy) {
				for a := uint64(0); a < uint64(prewarm>>1)*uint64(line); a += uint64(line) {
					h.Access(a * 3)
				}
				if prewarm&1 == 1 {
					h.L1().Reset()
				}
			}
		}
		checkWarm(t, cfg, warm, ranges)
	})
}

// BenchmarkWarm builds a hierarchy and warms it over mcf's ranges, an 8 MiB
// footprint and a 64 KiB hot region, the set-up each fresh simulation of
// mcf pays, on the default memory and on the C920's SG2042 memory.
func BenchmarkWarm(b *testing.B) {
	ranges := workload.MustNew("mcf").WarmRanges()
	for _, cfg := range []mem.Config{mem.DefaultConfig(), inorder.C920().Mem} {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mem.NewHierarchy(cfg).Warm(ranges)
			}
		})
	}
}
