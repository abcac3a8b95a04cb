package sample

import (
	"dkip/internal/isa"
	"dkip/internal/trace"
)

// stateful is the surface of a generator whose place in its stream can be
// saved and resumed, as workload.Benchmark's can. Given it, a checkpoint
// carries the generator's state at its position (ckpt.Checkpoint.Gen), and
// a hit resumes the stream there instead of regenerating the prefix.
type stateful interface {
	SaveState() ([]byte, error)
	LoadState(data []byte) error
}

// tape is a sampled run's single pass over its instruction stream. It owns
// the run's only generator. The walk — the tape itself, used as a
// trace.Generator — carries the stream position from one interval start to
// the next: through the functional cursor on a checkpoint miss, and on a
// hit through the kept read-ahead, the generator state the checkpoint
// carries, or, for a generator without state methods or a checkpoint
// without state, by generating the gap (seek). A detailed interval reads
// ahead of the walk through a reader, which keeps every instruction it
// pulls; the walk replays those before it generates new ones, so every
// stream position is generated at most once. What is kept is bounded by one
// interval's read-ahead, and the buffer is reused across the run's
// intervals.
//
// A checkpoint captured on a miss carries the generator's state at its
// position (genState). When the generator stands there, the tape saves it
// then. When a reader has already generated past it, which happens when a
// detailed interval runs into the next one's start, the reader saved it
// just before generating that position: a reader saves the state at each
// interval start it is told of (read).
type tape struct {
	gen   trace.Generator
	state stateful // gen's state methods, or nil when it has none
	kept  []isa.Instr
	head  int    // kept[head:] are ahead of the walk
	pos   uint64 // the walk's stream position

	// saved holds the generator states readers saved at interval starts
	// ahead of the walk, in stream order.
	saved []savedState
}

type savedState struct {
	pos  uint64
	data []byte
}

var _ trace.Generator = (*tape)(nil)

// newTape returns a walk at the start of g's stream whose buffer holds
// capacity instructions before it grows.
func newTape(g trace.Generator, capacity uint64) *tape {
	t := &tape{gen: g, kept: make([]isa.Instr, 0, capacity)}
	t.state, _ = g.(stateful)
	return t
}

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
	t.kept, t.head, t.pos, t.saved = t.kept[:0], 0, 0, t.saved[:0]
}

// genPos returns the generator's stream position: the walk's, plus what
// is kept ahead of it.
func (t *tape) genPos() uint64 { return t.pos + uint64(len(t.kept)-t.head) }

// seek moves the walk forward to pos, where a checkpoint hit: through the
// kept read-ahead when it reaches pos, else by loading gen, the
// generator's state at pos, into the generator. When there are no state
// methods or no state, or the generator refuses it, the walk generates the
// instructions up to pos instead.
func (t *tape) seek(pos uint64, gen []byte) {
	if t.genPos() < pos && t.state != nil && gen != nil && t.state.LoadState(gen) == nil {
		t.kept, t.head, t.pos, t.saved = t.kept[:0], 0, pos, t.saved[:0]
		return
	}
	n := pos - t.pos
	t.pos = pos
	if ahead := uint64(len(t.kept) - t.head); ahead > 0 {
		k := min(n, ahead)
		t.head += int(k)
		n -= k
	}
	for ; n > 0; n-- {
		t.gen.Next()
	}
	t.forget()
}

// genState returns the generator's state at the walk's position, or nil
// when the generator has no state methods or fails to save it.
func (t *tape) genState() []byte {
	data := t.forget()
	if t.state != nil && t.genPos() == t.pos {
		var err error
		if data, err = t.state.SaveState(); err != nil {
			data = nil
		}
	}
	return data
}

// forget drops the states saved at or before the walk's position and
// returns the one saved at it, if any.
func (t *tape) forget() []byte {
	var at []byte
	i := 0
	for ; i < len(t.saved) && t.saved[i].pos <= t.pos; i++ {
		if t.saved[i].pos == t.pos {
			at = t.saved[i].data
		}
	}
	t.saved = append(t.saved[:0], t.saved[i:]...)
	return at
}

// read returns a reader positioned at the walk. Instructions kept by an
// earlier reader and not yet walked past are moved to the front of the
// buffer, so it never holds more than one read-ahead. starts are the
// interval starts after the walk's, in stream order: when the generator
// has state methods, the reader saves its state just before it generates
// each of them.
func (t *tape) read(starts []uint64) *reader {
	n := copy(t.kept, t.kept[t.head:])
	t.kept, t.head = t.kept[:n], 0
	if t.state == nil {
		starts = nil
	}
	for len(starts) > 0 && starts[0] < t.genPos() {
		starts = starts[1:]
	}
	return &reader{t: t, starts: starts}
}

// reader reads the stream ahead of the walk without moving it, keeping what
// it pulls from the generator on the tape. The engine may call it from its
// instruction-feed goroutine; the feed's exit handshake orders those calls,
// and the states they save, before the engine's Run returns.
type reader struct {
	t      *tape
	i      int      // index of the next instruction in t.kept
	starts []uint64 // interval starts the generator has not yet reached
}

var _ trace.Generator = (*reader)(nil)

// Next returns the next instruction past the walk.
func (r *reader) Next() isa.Instr {
	t := r.t
	if r.i == len(t.kept) {
		if len(r.starts) > 0 && t.pos+uint64(r.i) == r.starts[0] {
			if data, err := t.state.SaveState(); err == nil {
				t.saved = append(t.saved, savedState{r.starts[0], data})
			}
			r.starts = r.starts[1:]
		}
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
