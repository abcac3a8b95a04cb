package sample

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"dkip/internal/isa"
)

// countGen is a stateful generator whose instruction at position i has PC
// i+1 and whose state is its position.
type countGen struct{ pos uint64 }

func (g *countGen) Next() isa.Instr {
	g.pos++
	return isa.Instr{PC: g.pos}
}
func (g *countGen) Name() string { return "count" }
func (g *countGen) SaveState() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, g.pos), nil
}
func (g *countGen) LoadState(data []byte) error {
	if len(data) != 8 {
		return errors.New("countGen: bad state")
	}
	g.pos = binary.LittleEndian.Uint64(data)
	return nil
}

// TestTapeSavesStateAtEveryStartPassed reads far past several interval
// starts: the reader saves the generator state at each start it generates
// past, and the walk finds it there. A seek past the read-ahead loads the
// checkpointed state instead of generating the gap.
func TestTapeSavesStateAtEveryStartPassed(t *testing.T) {
	g := &countGen{}
	walk := newTape(g)
	starts := []uint64{0, 10, 20, 30, 40}
	r := walk.read(starts[1:], 64)
	for i := 0; i < 35; i++ {
		r.Next()
	}
	r.close()
	for _, pos := range starts[1:4] {
		for walk.pos < pos {
			walk.Next()
		}
		got := walk.genState()
		if want, _ := (&countGen{pos: pos}).SaveState(); !bytes.Equal(got, want) {
			t.Fatalf("state at %d: got %v, want %v", pos, got, want)
		}
	}
	if len(walk.saved) != 1 || walk.hi != 35 {
		t.Fatalf("after the walk reached 30: %d states kept, want only 30's; generator at %d", len(walk.saved), walk.hi)
	}
	state, _ := (&countGen{pos: 40}).SaveState()
	walk.seek(40, state)
	if g.pos != 40 || walk.pos != 40 || walk.hi != 40 {
		t.Fatalf("seek to 40: generator at %d, walk at %d, tape at %d", g.pos, walk.pos, walk.hi)
	}
	if in := walk.read(nil, 64).Next(); in.PC != 41 {
		t.Fatalf("after the seek the stream resumes at PC %d, want 41", in.PC)
	}
}

// TestTapeKeepsWhatTheReaderMayRead runs the walk far ahead of a reader:
// the reader still reads the stream's own instructions, none of them is
// generated twice, and a read past the reader's limit, whose instructions
// the walk did not keep, panics instead of returning another position's.
func TestTapeKeepsWhatTheReaderMayRead(t *testing.T) {
	g := &countGen{}
	walk := newTape(g)
	r := walk.read(nil, 30)
	buf := make([]isa.Instr, 100)
	walk.Fill(buf)
	got := make([]isa.Instr, 30)
	r.Fill(got[:7])
	r.Fill(got[7:])
	for i, in := range got {
		if in.PC != uint64(i+1) {
			t.Fatalf("reader position %d: PC %d, want %d", i, in.PC, i+1)
		}
	}
	if g.pos != 100 {
		t.Fatalf("generator called %d times for 100 positions", g.pos)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a read past the reader's limit returned")
		}
	}()
	r.Next()
}

// panicGen panics with value on its failAt-th Next call.
type panicGen struct {
	countGen
	failAt uint64
	value  any
}

func (g *panicGen) Next() isa.Instr {
	if g.pos+1 == g.failAt {
		panic(g.value)
	}
	return g.countGen.Next()
}

// TestTapeFailsBothConsumers makes the generator panic under the walk: the
// walk's Fill raises the value, the reader still reads what the walk's
// earlier calls generated, and its first read that would generate raises
// the same value rather than calling the failed generator again.
func TestTapeFailsBothConsumers(t *testing.T) {
	value := errors.New("generator failed")
	g := &panicGen{failAt: 20, value: value}
	walk := newTape(g)
	r := walk.read(nil, 64)
	raised := func(fill func([]isa.Instr), n int) (v any) {
		defer func() { v = recover() }()
		fill(make([]isa.Instr, n))
		return nil
	}
	if v := raised(walk.Fill, 10); v != nil {
		t.Fatalf("the walk's first 10 instructions raised %v", v)
	}
	if v := raised(walk.Fill, 20); v != value {
		t.Fatalf("walk recovered %v, want %v", v, value)
	}
	if v := raised(r.Fill, 10); v != nil {
		t.Fatalf("reading the walk's first 10 instructions raised %v", v)
	}
	if v := raised(r.Fill, 1); v != value {
		t.Fatalf("reader recovered %v, want %v", v, value)
	}
	if g.pos != 19 {
		t.Fatalf("generator called past its failure: at %d", g.pos)
	}
}
