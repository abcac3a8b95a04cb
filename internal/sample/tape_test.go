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
	walk := newTape(g, 16)
	starts := []uint64{0, 10, 20, 30, 40}
	r := walk.read(starts[1:])
	for i := 0; i < 35; i++ {
		r.Next()
	}
	for _, pos := range starts[1:4] {
		for walk.pos < pos {
			walk.Next()
		}
		got := walk.genState()
		if want, _ := (&countGen{pos: pos}).SaveState(); !bytes.Equal(got, want) {
			t.Fatalf("state at %d: got %v, want %v", pos, got, want)
		}
	}
	if len(walk.saved) != 0 || walk.genPos() != 35 {
		t.Fatalf("after the walk reached 30: %d states kept, generator at %d", len(walk.saved), walk.genPos())
	}
	state, _ := (&countGen{pos: 40}).SaveState()
	walk.seek(40, state)
	if g.pos != 40 || walk.pos != 40 || len(walk.kept) != 0 {
		t.Fatalf("seek to 40: generator at %d, walk at %d, %d kept", g.pos, walk.pos, len(walk.kept))
	}
	if in := walk.read(nil).Next(); in.PC != 41 {
		t.Fatalf("after the seek the stream resumes at PC %d, want 41", in.PC)
	}
}
