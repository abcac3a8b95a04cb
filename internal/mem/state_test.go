package mem_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"dkip/internal/binread"
	"dkip/internal/mem"
	"dkip/internal/sim"
	"dkip/internal/workload"
)

// stateHierarchy is a hierarchy whose snapshot seeds the state tests.
type stateHierarchy struct {
	name string
	h    *mem.Hierarchy
}

// stateHierarchies returns each paper machine family's hierarchy (DKIP-2048
// on mcf, R10-64 on swim, the C920 on gcc) after range and functional
// warming, then a perfect-L1 one and a small L1-only one after a strided
// walk.
func stateHierarchies(tb testing.TB) []stateHierarchy {
	tb.Helper()
	var hs []stateHierarchy
	for _, run := range []struct{ preset, bench string }{{"dkip", "mcf"}, {"r10-64", "swim"}, {"inorder", "gcc"}} {
		e := sim.MustPresetSpec(run.preset, run.bench, 0, 0).NewEngine()
		g := workload.MustNew(run.bench)
		e.Hierarchy().Warm(g.WarmRanges())
		e.WarmFunctional(g, 20_000)
		hs = append(hs, stateHierarchy{run.preset, e.Hierarchy()})
	}
	for _, cfg := range []mem.Config{
		mem.Table1Configs()[0],
		{Name: "L1-only", L1Size: 1 << 10, L1Latency: 2, MemLatency: 100},
	} {
		h := mem.NewHierarchy(cfg)
		walk(h, 0)
		hs = append(hs, stateHierarchy{cfg.Name, h})
	}
	return hs
}

// walk drives h with a strided address sequence over 16 lines, which
// leaves half the ways of tiny's L2 invalid; seed shifts it by whole lines.
func walk(h *mem.Hierarchy, seed uint64) {
	for a := seed * 64; a < seed*64+1<<10; a += 40 {
		h.Access(a)
	}
}

// tiny is a two-level hierarchy small enough to refuse every truncation of
// its snapshot: 8 L1 ways and 32 L2 ways.
var tiny = mem.Config{Name: "tiny", L1Size: 512, L1Latency: 1, L2Size: 2048, L2Latency: 10, MemLatency: 100}

// Offsets into a snapshot of tiny: each level's header is its presence
// byte, three u32 geometry fields, the u64 clock and the u32 way count.
const (
	tinyL1Ways = 8
	tinyL2Ways = 32
	header     = 1 + 3*4 + 8 + 4
	l1Valid    = header + 8*tinyL1Ways
	l2Presence = header + 17*tinyL1Ways
	l2Valid    = l2Presence + header + 8*tinyL2Ways
)

func TestHierarchyStateRoundTrip(t *testing.T) {
	for _, sh := range stateHierarchies(t) {
		name, h := sh.name, sh.h
		state := h.SaveState()
		fresh := mem.NewHierarchy(h.Config())
		if err := fresh.LoadState(state); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fresh.SaveState(); !bytes.Equal(got, state) {
			t.Errorf("%s: a loaded snapshot saves back to different bytes", name)
		}
		if fresh.Accesses() != 0 {
			t.Errorf("%s: LoadState changed the statistics", name)
		}
		// The loaded hierarchy answers every access as the original does.
		for a := uint64(0); a < 1<<24; a += 4099 {
			lat, lvl := h.Access(a)
			if lat2, lvl2 := fresh.Access(a); lat2 != lat || lvl2 != lvl {
				t.Fatalf("%s: access %#x: loaded hierarchy gives %d cycles at %v, original %d at %v", name, a, lat2, lvl2, lat, lvl)
			}
		}
	}
}

// refuse checks that LoadState refuses data, with want when it is set, and
// leaves h as it was.
func refuse(t *testing.T, h *mem.Hierarchy, what string, data []byte, want error) {
	t.Helper()
	before := h.SaveState()
	err := h.LoadState(data)
	switch {
	case err == nil:
		t.Errorf("%s: loaded cleanly", what)
	case want != nil && !errors.Is(err, want):
		t.Errorf("%s: err = %v, want %v", what, err, want)
	}
	if !bytes.Equal(h.SaveState(), before) {
		t.Errorf("%s: a refused snapshot changed the hierarchy", what)
	}
}

// TestLoadStateRefusesMalformed feeds LoadState every truncation of a valid
// snapshot, a trailing byte, each geometry field and the way count changed,
// a level marked absent, each presence and valid byte set to 2 (a value
// SaveState never writes) and snapshots of other shapes: each is refused,
// and the hierarchy, warmed differently from the snapshot, is left as it
// was. A bad L2 header or valid byte after a good L1 section shows that
// neither level is written before both are checked.
func TestLoadStateRefusesMalformed(t *testing.T) {
	src := mem.NewHierarchy(tiny)
	walk(src, 0)
	state := src.SaveState()
	if len(state) != l2Presence+header+17*tinyL2Ways {
		t.Fatalf("snapshot of tiny is %d bytes, the test's offsets assume %d", len(state), l2Presence+header+17*tinyL2Ways)
	}
	h := mem.NewHierarchy(tiny)
	walk(h, 3)

	for n := 0; n < len(state); n++ {
		refuse(t, h, fmt.Sprintf("truncation to %d of %d bytes", n, len(state)), state[:n], binread.ErrTruncated)
	}
	refuse(t, h, "trailing byte", append(append([]byte{}, state...), 0), binread.ErrTrailing)
	for _, level := range []struct {
		name string
		at   int
	}{{"L1", 1}, {"L2", l2Presence + 1}} {
		for _, field := range []struct {
			name string
			off  int
		}{{"size", 0}, {"line", 4}, {"assoc", 8}, {"way count", 3*4 + 8}} {
			bad := append([]byte{}, state...)
			at := bad[level.at+field.off:]
			binary.LittleEndian.PutUint32(at, 2*binary.LittleEndian.Uint32(at))
			refuse(t, h, level.name+" "+field.name+" doubled", bad, nil)
		}
	}
	absent := append([]byte{}, state...)
	absent[0] = 0
	refuse(t, h, "L1 marked absent", absent, nil)
	absent = append([]byte{}, state[:l2Presence+1]...)
	absent[l2Presence] = 0
	refuse(t, h, "L2 marked absent", absent, nil)

	flags := []int{0, l2Presence}
	for i := 0; i < tinyL1Ways; i++ {
		flags = append(flags, l1Valid+i)
	}
	for i := 0; i < tinyL2Ways; i++ {
		flags = append(flags, l2Valid+i)
	}
	for _, off := range flags {
		bad := append([]byte{}, state...)
		bad[off] = 2
		refuse(t, h, fmt.Sprintf("flag byte 2 at offset %d", off), bad, binread.ErrFlag)
	}

	other := mem.NewHierarchy(mem.Config{Name: "l1-only", L1Size: 512, L1Latency: 1, MemLatency: 100})
	walk(other, 0)
	refuse(t, h, "an L1-only snapshot", other.SaveState(), nil)
	refuse(t, other, "a two-level snapshot into an L1-only hierarchy", state, nil)
	refuse(t, h, "a perfect-L1 snapshot", mem.NewHierarchy(mem.Table1Configs()[0]).SaveState(), nil)
	big := mem.NewHierarchy(tiny.WithL2Size(4096))
	refuse(t, big, "a snapshot of a smaller L2", state, nil)
}

// TestLoadStateBoundsAllocation feeds a snapshot whose L1 section claims
// 2^28/17 ways, as many as a checkpoint's largest section could hold, and
// then ends: LoadState refuses it without allocating.
func TestLoadStateBoundsAllocation(t *testing.T) {
	b := []byte{1}
	for _, v := range []uint32{32 << 10, 64, 2} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, (1<<28)/17)
	h := mem.NewHierarchy(mem.DefaultConfig())
	if err := h.LoadState(b); err == nil {
		t.Fatal("a snapshot claiming more cache ways than it holds loaded cleanly")
	}
	if n := testing.AllocsPerRun(10, func() { _ = h.LoadState(b) }); n != 0 {
		t.Errorf("LoadState allocated %.0f times refusing a %d-byte snapshot", n, len(b))
	}
}

// TestLoadStateAllocationFree pins that LoadState allocates nothing, on a
// snapshot it loads and on ones it refuses.
func TestLoadStateAllocationFree(t *testing.T) {
	src := stateHierarchies(t)[0].h
	state := src.SaveState()
	h := mem.NewHierarchy(src.Config())
	flag := append([]byte{}, state...)
	flag[header+8*src.L1().Sets()*src.L1().Assoc()] = 2 // L1's first valid byte
	for what, data := range map[string][]byte{
		"a full snapshot":      state,
		"a truncated one":      state[:len(state)-1],
		"a bad valid byte":     flag,
		"another geometry's":   mem.NewHierarchy(mem.Table1Configs()[0]).SaveState(),
		"one with a byte more": append(append([]byte{}, state...), 0),
	} {
		if n := testing.AllocsPerRun(20, func() { _ = h.LoadState(data) }); n != 0 {
			t.Errorf("LoadState of %s allocates %.0f times, want 0", what, n)
		}
	}
}

// FuzzHierarchyState drives LoadState over arbitrary bytes into a hierarchy
// of each seed's shape. Invariants: LoadState never panics, and a snapshot
// it accepts saves back to the same bytes. Seeds are the snapshots of the
// three paper machine families' warmed hierarchies (145 KiB and 289 KiB),
// a perfect-L1 one and a small L1-only one.
func FuzzHierarchyState(f *testing.F) {
	var targets []*mem.Hierarchy
	shapes := map[mem.Config]bool{}
	for _, sh := range stateHierarchies(f) {
		f.Add(sh.h.SaveState())
		if cfg := sh.h.Config(); !shapes[cfg] {
			shapes[cfg] = true
			targets = append(targets, mem.NewHierarchy(cfg))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, h := range targets {
			if err := h.LoadState(data); err != nil {
				continue
			}
			if again := h.SaveState(); !bytes.Equal(again, data) {
				t.Fatalf("accepted %d bytes into %s that save back to %d different ones", len(data), h.Config().Name, len(again))
			}
		}
	})
}
