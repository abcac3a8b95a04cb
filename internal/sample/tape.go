package sample

import (
	"sync"

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
// the walk's generator and serves two consumers, which Run may drive from
// two goroutines at once:
//
//   - The walk — the tape itself, used as a trace.Generator — carries the
//     stream position from one interval start to the next: through the
//     functional cursor on a checkpoint miss, and on a hit through what is
//     kept ahead of it, the generator state the checkpoint carries, or, for
//     a generator without state methods or a checkpoint without state, by
//     generating the gap (seek).
//   - A reader (read) feeds one detailed interval from the walk's position
//     at its start, ahead of the walk or behind it.
//
// Whichever consumer reaches a stream position first generates it, so each
// position is generated once. One consumer at a time holds the generator
// (hold), and it calls the generator without holding mu, so the other can
// copy what is kept meanwhile. A position is kept only while the other
// consumer may still read it: everything a reader generates (the walk will
// pass it), and what the walk generates below the live reader's limit. The
// limit is the interval's warmup+measure plus the engine's Lookahead, the
// most one Run can pull past its target, so the ring that keeps them holds
// one interval's read-ahead however far the walk runs ahead, and is reused
// across the run's intervals.
//
// A checkpoint captured on a miss carries the generator's state at its
// position (genState). When the generator stands there, the walk saves it
// then. When a reader has already generated past it, which happens when a
// detailed interval runs into the next one's start, the reader saved it
// just before generating that position: a reader saves the state at each
// interval start it is told of (read).
//
// A panic in the generator leaves the tape failed: the consumer that called
// it sees the panic, and every later use of the generator re-raises its
// value, so both consumers stop with the same panic.
//
// A checkpoint hit that fans out reads a tape of its own instead, seeked to
// its checkpoint and used as a walk that no reader shares.
type tape struct {
	mu    sync.Mutex
	idle  sync.Cond // signalled when the generator is put down
	gen   trace.Generator
	fill  trace.Filler // gen, when it can fill a slice in one call
	state stateful     // gen's state methods, or nil when it has none
	name  string

	// ring keeps stream position p at ring[p%len(ring)], for the positions
	// a consumer may still read: those from the walk's position, or the
	// live reader's when it is behind, up to hi.
	ring []isa.Instr
	hi   uint64  // the generator's position: every position below it was generated
	busy bool    // a consumer holds the generator
	pos  uint64  // the walk's position
	rd   *reader // the live reader, or nil

	// saved holds the generator states saved at interval starts, from the
	// walk's position on, in stream order.
	saved []savedState

	failed  bool
	failure any // the generator's panic value; nil after runtime.Goexit
}

type savedState struct {
	pos  uint64
	data []byte
}

// tapeStopped is the value a failed tape raises when its generator ended a
// goroutine with runtime.Goexit rather than a panic.
const tapeStopped = "sample: the instruction generator exited its goroutine (runtime.Goexit)"

var _ trace.Filler = (*tape)(nil)

// newTape returns a walk at the start of g's stream.
func newTape(g trace.Generator) *tape {
	t := &tape{gen: g, name: g.Name()}
	t.idle.L = &t.mu
	t.fill, _ = g.(trace.Filler)
	t.state, _ = g.(stateful)
	return t
}

// Next advances the walk by one instruction.
func (t *tape) Next() isa.Instr {
	var in [1]isa.Instr
	t.Fill(in[:])
	return in[0]
}

// Fill advances the walk by len(buf) instructions: those a reader kept
// ahead of it first, then fresh ones, kept while the live reader may read
// them.
func (t *tape) Fill(buf []isa.Instr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(buf) > 0 {
		n := 0
		switch {
		case t.pos < t.hi:
			n = t.copyOut(buf, t.pos)
		case t.busy:
			t.idle.Wait()
		default:
			n = len(buf)
			var keep uint64
			if t.rd != nil && t.rd.limit > t.hi {
				keep = min(uint64(n), t.rd.limit-t.hi)
			}
			t.generate(buf, keep)
		}
		t.pos += uint64(n)
		buf = buf[n:]
	}
}

// Name returns the workload name.
func (t *tape) Name() string { return t.name }

// copyOut copies kept instructions from position p on into buf, up to the
// generator's position or the ring's end, whichever comes first, and
// returns how many it copied. The caller holds mu.
func (t *tape) copyOut(buf []isa.Instr, p uint64) int {
	size := uint64(len(t.ring))
	i := p % size
	n := min(uint64(len(buf)), t.hi-p, size-i)
	return copy(buf[:n], t.ring[i:i+n])
}

// generate fills buf with the generator's next len(buf) instructions and
// keeps the first keep of them. The caller holds mu and found the
// generator free. The ring slots it fills belong to positions no consumer
// reads until hi passes them.
func (t *tape) generate(buf []isa.Instr, keep uint64) {
	from := t.hi
	t.hold(func() {
		if t.fill != nil {
			t.fill.Fill(buf)
		} else {
			for k := range buf {
				buf[k] = t.gen.Next()
			}
		}
		if keep > 0 {
			n := copy(t.ring[from%uint64(len(t.ring)):], buf[:keep])
			copy(t.ring, buf[n:keep])
		}
	})
	t.hi = from + uint64(len(buf))
}

// hold runs f, which uses the generator, as its only user: the caller holds
// mu and found the generator free, and f runs without mu, so the other
// consumer can copy what is kept while f generates. mu is held again when
// hold returns. A panic in f, or a runtime.Goexit, fails the tape; the
// panic continues with the same value, and every later hold raises it.
func (t *tape) hold(f func()) {
	if t.failed {
		if t.failure == nil {
			panic(tapeStopped)
		}
		panic(t.failure)
	}
	t.busy = true
	t.mu.Unlock()
	done := false
	defer func() {
		t.mu.Lock()
		t.busy = false
		t.idle.Broadcast()
		if !done {
			t.failed, t.failure = true, recover()
			if t.failure != nil {
				panic(t.failure)
			}
		}
	}()
	f()
	done = true
}

// seek moves the walk forward to pos, where a checkpoint hit: through the
// kept read-ahead when it reaches pos, else by loading gen, the
// generator's state at pos, into the generator. When there are no state
// methods or no state, or the generator refuses it, the walk generates the
// instructions up to pos instead. No reader is live.
func (t *tape) seek(pos uint64, gen []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hi < pos && t.state != nil && gen != nil {
		var err error
		t.hold(func() { err = t.state.LoadState(gen) })
		if err == nil {
			t.hi, t.pos, t.saved = pos, pos, t.saved[:0]
			return
		}
	}
	var skip [256]isa.Instr
	for t.hi < pos {
		t.generate(skip[:min(pos-t.hi, uint64(len(skip)))], 0)
	}
	t.pos = pos
	t.forget()
}

// genState returns the generator's state at the walk's position, or nil
// when the generator has no state methods or fails to save it.
func (t *tape) genState() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.busy {
		t.idle.Wait()
	}
	if t.state != nil && t.hi == t.pos {
		t.saveState()
	}
	return t.forget()
}

// saveState saves the generator's state at its position, unless it was
// saved there already. The caller holds mu and found the generator free.
func (t *tape) saveState() {
	at := t.hi
	if n := len(t.saved); n > 0 && t.saved[n-1].pos == at {
		return
	}
	var data []byte
	var err error
	t.hold(func() { data, err = t.state.SaveState() })
	if err == nil {
		t.saved = append(t.saved, savedState{at, data})
	}
}

// forget drops the states saved before the walk's position and returns the
// one saved at it, if any. The caller holds mu.
func (t *tape) forget() []byte {
	i := 0
	for i < len(t.saved) && t.saved[i].pos < t.pos {
		i++
	}
	t.saved = append(t.saved[:0], t.saved[i:]...)
	if len(t.saved) > 0 && t.saved[0].pos == t.pos {
		return t.saved[0].data
	}
	return nil
}

// read returns the live reader for one detailed interval, positioned at the
// walk, which never reads at or past stream position walk+span. starts are
// the interval starts after the walk's, in stream order: when the generator
// has state methods, the reader saves its state just before it generates
// each of them. No consumer is using the generator, and the previous reader
// is closed.
func (t *tape) read(starts []uint64, span uint64) *reader {
	t.mu.Lock()
	defer t.mu.Unlock()
	if uint64(len(t.ring)) < span {
		ring := make([]isa.Instr, span)
		for p := t.pos; p < t.hi; p++ {
			ring[p%span] = t.ring[p%uint64(len(t.ring))]
		}
		t.ring = ring
	}
	if t.state == nil {
		starts = nil
	}
	for len(starts) > 0 && starts[0] < t.hi {
		starts = starts[1:]
	}
	t.rd = &reader{t: t, pos: t.pos, limit: t.pos + span, starts: starts}
	return t.rd
}

// reader reads the stream ahead of the walk, or behind it, for one detailed
// interval. The engine calls it from its instruction-feed goroutine and,
// past the feed's prefix, from the goroutine running the interval; the
// feed's exit handshake orders those calls.
type reader struct {
	t      *tape
	pos    uint64   // the next stream position it reads
	limit  uint64   // the position it never reads
	starts []uint64 // interval starts the generator has not yet reached
}

var _ trace.Filler = (*reader)(nil)

// Next returns the next instruction of the interval's stream.
func (r *reader) Next() isa.Instr {
	var in [1]isa.Instr
	r.Fill(in[:])
	return in[0]
}

// Fill reads the next len(buf) instructions of the interval's stream:
// those the walk kept, then fresh ones, all kept for the walk.
func (r *reader) Fill(buf []isa.Instr) {
	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.pos+uint64(len(buf)) > r.limit {
		panic("sample: a detailed interval read past its engine's Lookahead")
	}
	for len(buf) > 0 {
		n := 0
		switch {
		case r.pos < t.hi:
			n = t.copyOut(buf, r.pos)
		case t.busy:
			t.idle.Wait()
		case len(r.starts) > 0 && r.starts[0] == t.hi:
			r.starts = r.starts[1:]
			t.saveState()
		default:
			n = len(buf)
			if len(r.starts) > 0 {
				n = int(min(uint64(n), r.starts[0]-t.hi))
			}
			t.generate(buf[:n], uint64(n))
		}
		r.pos += uint64(n)
		buf = buf[n:]
	}
}

// Name returns the workload name.
func (r *reader) Name() string { return r.t.name }

// close ends the reader's life: the walk keeps nothing more for it.
func (r *reader) close() {
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	if r.t.rd == r {
		r.t.rd = nil
	}
}
