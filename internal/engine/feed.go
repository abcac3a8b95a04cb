package engine

import (
	"dkip/internal/isa"
	"dkip/internal/trace"
)

// The instruction feed decouples instruction supply from the cycle loop, as
// the D-KIP decouples its Cache and Memory Processors: while the engine
// simulates, a producer goroutine calls the generator for the part of the
// stream the engine is certain to consume and hands it over in fixed
// chunks. Past that part the engine calls the generator itself.
//
// The ring of feedChunks chunks of feedChunk instructions (4 × 1024 × 32
// bytes = 128 KiB) bounds how far generation runs ahead.
const (
	feedChunk  = 1024
	feedChunks = 4
)

// feedStopped is the panic value of a call whose generator ended the
// producer goroutine without returning or panicking (runtime.Goexit, which
// t.Fatal calls): the instructions it was producing are lost, so the call
// cannot continue.
const feedStopped = "engine: the instruction generator exited the feed goroutine (runtime.Goexit) before supplying the stream"

// feed supplies one Run or WarmFunctional call. The first want instructions
// come from the producer through the ring; the rest come from the generator
// on the caller's goroutine. One goroutine uses the generator at a time:
// the producer while it is live, the caller only after it has received the
// producer's exit mark.
type feed struct {
	g    trace.Generator
	fill trace.Filler // g, when it can fill a chunk in one call
	name string
	want uint64 // instructions the producer generates for this call

	ring *[feedChunks][feedChunk]isa.Instr
	// full carries the length of each filled chunk, in ring order, and then
	// a 0 as the producer exits. It buffers every chunk plus that exit mark,
	// so the producer never blocks on it.
	full chan int
	// free carries a token per chunk the caller is done with; the producer
	// takes one before it fills a chunk. It buffers a token per chunk, so
	// returning one never blocks.
	free chan struct{}
	// stop asks the producer to abandon the rest of its instructions while
	// the engine unwinds a panic. At most one request is ever pending, so
	// one slot never blocks.
	stop chan struct{}

	// Written by the producer before its exit mark, read after it.
	failed  bool
	failure any // the recovered panic value; nil after runtime.Goexit

	// The caller's side.
	live  bool        // a producer was started and its exit mark not yet received
	cur   []isa.Instr // the chunk being read, nil before the first
	i     int         // next instruction in cur
	slot  int         // ring slot of the next chunk
	extra uint64      // instructions this call pulled from g itself
}

var _ trace.Generator = (*feed)(nil)

// newFeed allocates the ring and channels an engine reuses for every call.
//
//dkip:coldpath
func newFeed() *feed {
	f := &feed{
		ring: new([feedChunks][feedChunk]isa.Instr),
		full: make(chan int, feedChunks+1),
		free: make(chan struct{}, feedChunks),
		stop: make(chan struct{}, 1),
	}
	f.reset()
	return f
}

// supply returns the engine's feed, readied for one call over g of which
// the engine is certain to consume the first n instructions.
//
//dkip:hotpath
func (e *Engine) supply(g trace.Generator, n uint64) *feed {
	if e.feed == nil {
		e.feed = newFeed()
	}
	f := e.feed
	f.g, f.name, f.want, f.extra, f.slot = g, g.Name(), n, 0, 0
	f.fill, _ = g.(trace.Filler)
	if n > 0 {
		f.live = true
		f.spawn()
	}
	return f
}

// spawn starts the producer. Starting a goroutine allocates its wrapper,
// once per call, never per instruction.
//
//dkip:coldpath
func (f *feed) spawn() {
	go f.produce()
}

// produce generates the call's first want instructions into the ring, one
// Fill call per chunk when the generator has it. It
// recovers a generator panic, or notes a runtime.Goexit, for the caller to
// raise, and always ends with the exit mark.
//
//dkip:hotpath
func (f *feed) produce() {
	done := false
	defer func() {
		if !done {
			f.failed, f.failure = true, recover()
		}
		f.full <- 0
	}()
	for n, slot := f.want, 0; n > 0; slot = (slot + 1) % feedChunks {
		select {
		case <-f.free:
		case <-f.stop:
			done = true
			return
		}
		c := f.ring[slot][:min(n, feedChunk)]
		if f.fill != nil {
			f.fill.Fill(c)
		} else {
			for i := range c {
				c[i] = f.g.Next()
			}
		}
		n -= uint64(len(c))
		f.full <- len(c)
	}
	done = true
}

// Next returns the call's next instruction.
//
//dkip:hotpath
func (f *feed) Next() isa.Instr {
	if f.i < len(f.cur) {
		in := f.cur[f.i]
		f.i++
		return in
	}
	return f.refill()
}

// refill moves to the producer's next chunk, or, once the producer has
// exited, to the generator itself.
//
//dkip:hotpath
func (f *feed) refill() isa.Instr {
	if f.live {
		if f.cur != nil {
			f.free <- struct{}{}
		}
		if n := <-f.full; n > 0 {
			f.cur, f.i = f.ring[f.slot][:n], 1
			f.slot = (f.slot + 1) % feedChunks
			return f.cur[0]
		}
		f.exited()
	}
	f.extra++
	return f.g.Next()
}

// Name returns the generator's name.
func (f *feed) Name() string { return f.name }

// finish ends a call that consumed everything the producer generated, and
// returns how many instructions the call pulled in all.
//
//dkip:hotpath
func (f *feed) finish() uint64 {
	if f.live {
		if f.i < len(f.cur) || <-f.full != 0 {
			panic("engine: call ended before consuming the instructions generated for it")
		}
		f.exited()
	}
	return f.want + f.extra
}

// exited handles the producer's exit mark: it readies the ring for the next
// call, then fails the caller with the producer's panic value, if any.
//
//dkip:hotpath
func (f *feed) exited() {
	failed, v := f.failed, f.failure
	f.reset()
	if failed {
		if v == nil {
			panic(feedStopped)
		}
		panic(v)
	}
}

// abort stops and joins a live producer without consuming the rest of its
// instructions. The engine defers it around every call, so a panic on the
// caller's goroutine never leaves the producer running; it does not raise
// the producer's own failure over that panic.
//
//dkip:hotpath
func (f *feed) abort() {
	if !f.live {
		return
	}
	f.stop <- struct{}{}
	for <-f.full != 0 {
	}
	f.reset()
}

// reset returns every chunk to free and drops a stop request the producer
// never saw. It runs only while no producer is live.
//
//dkip:hotpath
func (f *feed) reset() {
	f.live, f.cur, f.i = false, nil, 0
	f.failed, f.failure = false, nil
	for len(f.free) < feedChunks {
		f.free <- struct{}{}
	}
	select {
	case <-f.stop:
	default:
	}
}
