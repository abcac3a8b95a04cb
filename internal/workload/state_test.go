package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// mustState snapshots g, failing the test on error.
func mustState(t testing.TB, g *Benchmark) []byte {
	t.Helper()
	s, err := g.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStateRoundTrip pins the snapshot contract for every generator: a
// fresh generator loaded with the state saved at a position emits the same
// next instructions as the one it was saved from, and every other
// benchmark's generator refuses that state and is left as it was.
func TestStateRoundTrip(t *testing.T) {
	names := Names()
	others := make([]*Benchmark, len(names))
	for i, name := range names {
		others[i] = MustNew(name)
		for j := 0; j < 777; j++ {
			others[i].Next()
		}
	}
	for i, name := range names {
		for _, pos := range []uint64{0, 1, 12_345, 100_000} {
			g := MustNew(name)
			for j := uint64(0); j < pos; j++ {
				g.Next()
			}
			state := mustState(t, g)
			resumed := MustNew(name)
			if err := resumed.LoadState(state); err != nil {
				t.Fatalf("%s at %d: %v", name, pos, err)
			}
			if resumed.Emitted() != pos {
				t.Errorf("%s at %d: resumed generator reports %d emitted", name, pos, resumed.Emitted())
			}
			if got, want := streamDigest(resumed, 50_000), streamDigest(g, 50_000); got != want {
				t.Errorf("%s at %d: resumed stream digests to %s, original to %s", name, pos, got, want)
			}
			for j, h := range others {
				if j == i {
					continue
				}
				before := mustState(t, h)
				if err := h.LoadState(state); err == nil {
					t.Errorf("%s accepted the state of %s at %d", names[j], name, pos)
				}
				if !bytes.Equal(mustState(t, h), before) {
					t.Errorf("%s changed when it refused the state of %s at %d", names[j], name, pos)
				}
			}
		}
	}
}

// TestStateFingerprintCoversProfile changes each profile field in turn: a
// generator built from the edited profile must refuse the original's state.
func TestStateFingerprintCoversProfile(t *testing.T) {
	base, _ := Lookup("mcf")
	want := fingerprint(&base)
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		p := base
		f := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.001)
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("field %s: unhandled kind %v", v.Type().Field(i).Name, f.Kind())
		}
		if fingerprint(&p) == want {
			t.Errorf("changing %s leaves the fingerprint unchanged", v.Type().Field(i).Name)
		}
	}
	edited := base
	edited.Seed++
	g, err := NewFromProfile(edited)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.LoadState(mustState(t, MustNew("mcf"))); err == nil {
		t.Error("a generator of an edited profile accepted the original's state")
	}
}

// TestLoadStateRejectsCorruption truncates a valid state at every length,
// extends it, and puts each field out of the range a stream can reach: each
// is refused and leaves the generator as it was.
func TestLoadStateRejectsCorruption(t *testing.T) {
	src := MustNew("gcc")
	for i := 0; i < 4321; i++ {
		src.Next()
	}
	state := mustState(t, src)
	g := MustNew("gcc")
	before := mustState(t, g)
	refuse := func(what string, data []byte) {
		t.Helper()
		if err := g.LoadState(data); err == nil {
			t.Errorf("%s: accepted", what)
		}
		if !bytes.Equal(mustState(t, g), before) {
			t.Fatalf("%s: the refusal changed the generator", what)
		}
	}
	for n := 0; n < len(state); n++ {
		refuse(fmt.Sprintf("truncated to %d of %d bytes", n, len(state)), state[:n])
	}
	refuse("trailing byte", append(append([]byte{}, state...), 0))
	le := binary.LittleEndian
	set := func(off int, put func(b []byte)) []byte {
		b := append([]byte{}, state...)
		put(b[off:])
		return b
	}
	u8 := func(v byte) func([]byte) { return func(b []byte) { b[0] = v } }
	u32 := func(v uint32) func([]byte) { return func(b []byte) { le.PutUint32(b, v) } }
	u64 := func(v uint64) func([]byte) { return func(b []byte) { le.PutUint64(b, v) } }
	fpEnd := dataBase + src.Profile().FootprintBytes
	for _, c := range []struct {
		what string
		data []byte
	}{
		{"fingerprint", set(0, u64(0))},
		{"all-zero rng", set(8, func(b []byte) { copy(b[:32], make([]byte, 32)) })},
		{"block past the code", set(40, u32(uint32(len(src.blocks))))},
		{"position past block", set(44, u32(blockSpacing))},
		{"int allocator r0", set(48, u8(0))},
		{"fp allocator past f31", set(49, u8(32))},
		{"stream address low", set(50, u64(dataBase-8))},
		{"stream address high", set(50, u64(fpEnd))},
		{"stream address aligned", set(50, u64(dataBase+4))},
		{"stride address high", set(58, u64(fpEnd))},
		{"chase register f1", set(66, u8(33))},
		{"chase register r0", set(66, u8(0))},
		{"chase hops", set(67, u32(maxGeometric+1))},
		{"last load register", set(71, u8(99))},
		{"short int ring", set(80, u8(seededRing-1))},
		{"long int ring", set(80, u8(regRing+1))},
		{"int ring holds f2", set(81, u8(34))},
		{"loop counter count", set(len(state)-4*len(src.blocks)-4, u32(uint32(len(src.blocks)+1)))},
	} {
		refuse(c.what, c.data)
	}
	for i, blk := range src.blocks {
		bad := uint32(1)
		if blk.kind == brLoop {
			bad = uint32(blk.period + 1)
		}
		refuse(fmt.Sprintf("block %d loop counter", i), set(len(state)-4*(len(src.blocks)-i), u32(bad)))
	}
}

// FuzzLoadState feeds arbitrary bytes to every generator's LoadState: each
// input is refused, or the generator that takes it emits instructions an
// engine can run, with addresses inside the profile's regions. It never
// panics.
func FuzzLoadState(f *testing.F) {
	for _, name := range []string{"mcf", "gcc", "swim", "eon"} {
		g := MustNew(name)
		for _, n := range []int{0, 1, 5000} {
			for i := 0; i < n; i++ {
				g.Next()
			}
			f.Add(mustState(f, g))
		}
	}
	f.Add([]byte{})
	var gens []*Benchmark
	for _, name := range Names() {
		gens = append(gens, MustNew(name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range gens {
			if g.LoadState(data) != nil {
				continue
			}
			p := g.Profile()
			for i := 0; i < 10_000; i++ {
				in := g.Next()
				if err := wellFormed(in); err != nil {
					t.Fatalf("%s, %d instructions after the load: %v", p.Name, i, err)
				}
				inData := in.Addr >= dataBase && in.Addr < dataBase+p.FootprintBytes
				inHot := in.Addr >= hotBase && in.Addr < hotBase+p.HotBytes
				if in.Op.IsMem() && !inData && !inHot {
					t.Fatalf("%s, %d instructions after the load: address %#x outside the data and hot regions", p.Name, i, in.Addr)
				}
			}
		}
	})
}
