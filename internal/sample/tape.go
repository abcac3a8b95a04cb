package sample

import (
	"dkip/internal/isa"
	"dkip/internal/trace"
)

// tape is a sampled run's single pass over its instruction stream. It owns
// the run's only generator. The walk — the tape itself, used as a
// trace.Generator — carries the stream position from one interval start to
// the next: through the functional cursor on a checkpoint miss, through
// skip on a hit. A detailed interval reads ahead of the walk through a
// reader, which keeps every instruction it pulls; the walk replays those
// before it generates new ones, so every stream position is generated
// exactly once. What is kept is bounded by one interval's read-ahead, and
// the buffer is reused across the run's intervals.
type tape struct {
	gen  trace.Generator
	kept []isa.Instr // read ahead of the walk; kept[head:] are still ahead
	head int
	pos  uint64 // the walk's stream position
}

var _ trace.Generator = (*tape)(nil)

// Next advances the walk by one instruction, replaying a kept one when the
// last detailed interval read that far.
func (t *tape) Next() isa.Instr {
	t.pos++
	if t.head < len(t.kept) {
		in := t.kept[t.head]
		t.head++
		return in
	}
	return t.gen.Next()
}

// Name returns the workload name.
func (t *tape) Name() string { return t.gen.Name() }

// Reset restarts the walk at stream start and drops what was kept.
func (t *tape) Reset() {
	t.gen.Reset()
	t.kept, t.head, t.pos = t.kept[:0], 0, 0
}

// skip advances the walk by n instructions it has no use for.
func (t *tape) skip(n uint64) {
	t.pos += n
	if ahead := uint64(len(t.kept) - t.head); ahead > 0 {
		k := min(n, ahead)
		t.head += int(k)
		n -= k
	}
	for ; n > 0; n-- {
		t.gen.Next()
	}
}

// read returns a reader positioned at the walk. Instructions kept by an
// earlier reader and not yet walked past are moved to the front of the
// buffer, so it never holds more than one read-ahead.
func (t *tape) read() *reader {
	n := copy(t.kept, t.kept[t.head:])
	t.kept, t.head = t.kept[:n], 0
	return &reader{t: t}
}

// reader reads the stream ahead of the walk without moving it, keeping what
// it pulls from the generator on the tape.
type reader struct {
	t *tape
	i int // index of the next instruction in t.kept
}

var _ trace.Generator = (*reader)(nil)

// Next returns the next instruction past the walk.
func (r *reader) Next() isa.Instr {
	t := r.t
	if r.i == len(t.kept) {
		t.kept = append(t.kept, t.gen.Next())
	}
	in := t.kept[r.i]
	r.i++
	return in
}

// Name returns the workload name.
func (r *reader) Name() string { return r.t.gen.Name() }

// Reset rewinds the reader to the walk's position.
func (r *reader) Reset() { r.i = 0 }
