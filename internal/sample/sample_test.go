package sample_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"dkip/internal/ckpt"
	"dkip/internal/core"
	"dkip/internal/isa"
	"dkip/internal/ooo"
	"dkip/internal/pipeline"
	"dkip/internal/sample"
	"dkip/internal/sim"
	"dkip/internal/trace"
	"dkip/internal/workload"
)

// streamLog follows one sampled run's use of its instruction stream. Its
// wrappers run on the engines' feed goroutines and, when a CPU is lent, on
// the goroutine running a detailed interval beside the walk, so mu guards
// everything below it.
type streamLog struct {
	t       *testing.T
	bench   string
	newGens int

	mu       sync.Mutex
	calls    uint64 // Next calls on the run's generators
	furthest uint64 // furthest stream position any engine consumed
	starts   []uint64
	ends     []uint64    // per detailed interval: start and furthest read
	consumed [][2]uint64 // per engine call: the stream range it consumed
	diverged bool        // a mismatch was reported; later ones follow from it
	// refs holds reference-generator states by stream position, saved
	// where engine calls ended, so the next call's reference resumes there
	// instead of replaying the stream from its start.
	refs map[uint64][]byte
}

// refAt returns a reference generator at stream position pos.
func (l *streamLog) refAt(pos uint64) *workload.Benchmark {
	l.mu.Lock()
	defer l.mu.Unlock()
	ref := workload.MustNew(l.bench)
	var from uint64
	if data, ok := l.refs[pos]; ok {
		if err := ref.LoadState(data); err != nil {
			l.t.Error(err)
		}
		from = pos
	}
	for ; from < pos; from++ {
		ref.Next()
	}
	return ref
}

// keepRef saves ref's state, which is at stream position pos.
func (l *streamLog) keepRef(pos uint64, ref *workload.Benchmark) {
	data, err := ref.SaveState()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.t.Error(err)
		return
	}
	if l.refs == nil {
		l.refs = map[uint64][]byte{}
	}
	l.refs[pos] = data
}

// distinct returns how many stream positions the run's engines consumed.
func (l *streamLog) distinct() uint64 {
	r := append([][2]uint64{}, l.consumed...)
	sort.Slice(r, func(i, j int) bool { return r[i][0] < r[j][0] })
	var n, end uint64
	for _, c := range r {
		if c[0] > end {
			end = c[0]
		}
		if c[1] > end {
			n += c[1] - end
			end = c[1]
		}
	}
	return n
}

// countingGen counts the Next calls sample.Run makes on its generator.
type countingGen struct {
	trace.Generator
	log *streamLog
}

func (g *countingGen) Next() isa.Instr {
	g.log.mu.Lock()
	g.log.calls++
	g.log.mu.Unlock()
	return g.Generator.Next()
}

// statefulGen is a countingGen that forwards the generator's state methods,
// so sample.Run can carry the stream state in checkpoints and resume from
// it.
type statefulGen struct {
	countingGen
	b *workload.Benchmark
}

func (g *statefulGen) SaveState() ([]byte, error)  { return g.b.SaveState() }
func (g *statefulGen) LoadState(data []byte) error { return g.b.LoadState(data) }

// checkedEngine checks that every instruction the engine consumes is the
// stream's instruction at that position, against a generator of its own.
type checkedEngine struct {
	sample.Engine
	log *streamLog
	pos uint64 // stream position of the engine's next instruction
}

func (e *checkedEngine) RestoreArch(c *ckpt.Checkpoint) error {
	e.pos = c.Pos
	return e.Engine.RestoreArch(c)
}

func (e *checkedEngine) WarmFunctional(g trace.Generator, n uint64) {
	c := e.check(g)
	e.Engine.WarmFunctional(c, n)
	e.log.keepRef(e.pos, c.ref)
	e.log.mu.Lock()
	e.log.consumed = append(e.log.consumed, [2]uint64{c.start, e.pos})
	e.log.mu.Unlock()
}

func (e *checkedEngine) Run(g trace.Generator, warmup, measure uint64) *pipeline.Stats {
	c := e.check(g)
	st := e.Engine.Run(c, warmup, measure)
	e.log.keepRef(e.pos, c.ref)
	e.log.mu.Lock()
	e.log.starts = append(e.log.starts, c.start)
	e.log.ends = append(e.log.ends, e.pos)
	e.log.consumed = append(e.log.consumed, [2]uint64{c.start, e.pos})
	e.log.mu.Unlock()
	return st
}

func (e *checkedEngine) check(g trace.Generator) *checkedGen {
	return &checkedGen{Generator: g, e: e, ref: e.log.refAt(e.pos), start: e.pos}
}

type checkedGen struct {
	trace.Generator
	e     *checkedEngine
	ref   *workload.Benchmark
	start uint64
}

// Next runs on the engine's feed goroutine, where t.Fatalf must not be
// called: a mismatch is reported with t.Errorf, once per run.
func (g *checkedGen) Next() isa.Instr {
	var in [1]isa.Instr
	g.Fill(in[:])
	return in[0]
}

// Fill passes the engine's feed a chunk of the stream at once, as the tape
// it wraps does, and checks each instruction.
func (g *checkedGen) Fill(buf []isa.Instr) {
	g.Generator.(trace.Filler).Fill(buf)
	at := -1
	var want isa.Instr
	for i, in := range buf {
		if ref := g.ref.Next(); in != ref && at < 0 {
			at, want = i, ref
		}
	}
	log := g.e.log
	log.mu.Lock()
	defer log.mu.Unlock()
	if at >= 0 && !log.diverged {
		log.diverged = true
		log.t.Errorf("stream position %d: engine got %v, want %v", g.e.pos+uint64(at), &buf[at], &want)
	}
	g.e.pos += uint64(len(buf))
	if g.e.pos > log.furthest {
		log.furthest = g.e.pos
	}
}

// memStore is an in-memory checkpoint store holding encoded checkpoints, so
// every Load decodes a fresh copy as the real stores do.
type memStore map[uint64][]byte

// grant is a sample.Config.LendCPU that always lends a CPU.
func grant() func() { return func() {} }

// runLogged runs spec's sampled simulation through sample.Run with checked
// engines and a counted generator, which forwards the generator's state
// methods when stateful is set. serve picks which stored checkpoint, if
// any, a Load of pos returns. lend, when set, is the run's LendCPU.
func runLogged(t *testing.T, spec sim.RunSpec, store memStore, serve func(pos uint64) (uint64, bool), stateful bool, lend func() func()) (*pipeline.Stats, *sample.Summary, sample.IO, *streamLog) {
	t.Helper()
	log := &streamLog{t: t, bench: spec.Bench}
	g := workload.MustNew(spec.Bench)
	cfg := sample.Config{
		Bench:     spec.Bench,
		NewEngine: func() sample.Engine { return &checkedEngine{Engine: spec.NewEngine(), log: log} },
		NewGen: func() trace.Generator {
			log.newGens++
			b := workload.MustNew(spec.Bench)
			if stateful {
				return &statefulGen{countingGen{Generator: b, log: log}, b}
			}
			return &countingGen{Generator: b, log: log}
		},
		WarmRanges: g.WarmRanges(),
		Warmup:     spec.Warmup,
		Measure:    spec.Measure,
		Plan:       spec.SamplePlan(),
		Load: func(pos uint64) *ckpt.Checkpoint {
			from, ok := serve(pos)
			data, stored := store[from]
			if !ok || !stored {
				return nil
			}
			c, err := ckpt.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
		Store:   func(c *ckpt.Checkpoint) { store[c.Pos] = ckpt.Encode(c) },
		LendCPU: lend,
	}
	st, sum, io, err := sample.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, sum, io, log
}

// checkStoredGen checks that every checkpoint in store carries the
// generator's state at its position, whether the generator stood there
// when the checkpoint was captured or a detailed interval had already read
// past it.
func checkStoredGen(t *testing.T, name, bench string, store memStore) {
	t.Helper()
	var positions []uint64
	for pos := range store {
		positions = append(positions, pos)
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	ref := workload.MustNew(bench)
	var at uint64
	for _, pos := range positions {
		c, err := ckpt.Decode(store[pos])
		if err != nil {
			t.Fatal(err)
		}
		for ; at < pos; at++ {
			ref.Next()
		}
		want, err := ref.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.Gen, want) {
			t.Errorf("%s store: the checkpoint at %d carries %d bytes of generator state, not the stream's state there", name, pos, len(c.Gen))
		}
	}
}

// TestRunGeneratesEachInstructionOnce pins the single stream walk: whether
// every checkpoint is computed, every one is reloaded, or they alternate,
// sample.Run builds one generator, every engine sees the stream's own
// instructions at its positions, and the results do not depend on the
// store. A checkpoint filed under the wrong position counts as a miss. The
// 2k/8k plan's intervals tile their stride, so detailed reads cross the
// next interval start there.
//
// Two columns of generators run each store state. One hides its state
// methods, so a hit regenerates the stream up to its position: the run
// calls Next exactly once per position up to the furthest any engine read.
// The other has them, so checkpoints carry its state and a hit resumes the
// stream from it: the run calls Next exactly once per position an engine
// consumed and never for the gaps between. Both columns give the same
// results and checkpoint traffic, and in the stateful column every stored
// checkpoint carries the generator's state at its position. The stateful
// column runs where intervals are far apart (10k/200k) and where they tile
// (2k/8k).
//
// Both plan shapes run twice: with their detailed intervals inline, and
// with a lender that always grants a CPU, so each interval runs beside the
// walk to the next interval start and the two share the tape. The 10k/1M
// row, the far-apart shape at the sampling scale, runs inline only: lent,
// it would repeat the 10k/200k row's schedule at five times the length.
func TestRunGeneratesEachInstructionOnce(t *testing.T) {
	for _, sc := range []struct {
		warmup, measure uint64
		crosses         bool
		columns         []bool // which generators run: stateful or not
		lent            bool   // whether the row also runs with a lender
	}{
		{10_000, 1_000_000, false, []bool{false}, false},
		{10_000, 200_000, false, []bool{false, true}, true},
		{2_000, 8_000, true, []bool{false, true}, true},
	} {
		spec := sim.DKIPSpec("mcf", core.Config{}, sc.warmup, sc.measure)
		spec.Sample = sample.DefaultPlan()
		stride := sc.measure / 4
		t.Run(fmt.Sprintf("%d+%d", sc.warmup, sc.measure), func(t *testing.T) {
			states := []struct {
				name  string
				serve func(pos uint64) (uint64, bool)
				hits  uint64
			}{
				{"empty", func(pos uint64) (uint64, bool) { return pos, false }, 0},
				{"full", func(pos uint64) (uint64, bool) { return pos, true }, 4},
				{"every-other", func(pos uint64) (uint64, bool) { return pos, (pos-sc.warmup)/stride%2 == 0 }, 2},
				{"misfiled", func(pos uint64) (uint64, bool) { return pos + stride, true }, 0},
			}
			type outcome struct {
				st  *pipeline.Stats
				sum *sample.Summary
				io  sample.IO
			}
			type mode struct {
				name string
				lend func() func()
			}
			modes := []mode{{"inline", nil}}
			if sc.lent {
				modes = append(modes, mode{"lent", grant})
			}
			for _, mode := range modes {
				hidden := make([]outcome, len(states))
				for _, stateful := range sc.columns {
					column := mode.name + " hidden-state"
					if stateful {
						column = mode.name + " stateful"
					}
					store := memStore{}
					for i, state := range states {
						st, sum, io, log := runLogged(t, spec, store, state.serve, stateful, mode.lend)
						name := column + " " + state.name
						if io.Hits != state.hits || io.Hits+io.Misses != 4 {
							t.Errorf("%s store: io = %+v, want %d hits of 4", name, io, state.hits)
						}
						if log.newGens != 1 {
							t.Errorf("%s store: NewGen called %d times, want once", name, log.newGens)
						}
						want := log.furthest
						if stateful {
							want = log.distinct()
						}
						if log.calls != want {
							t.Errorf("%s store: %d Next calls; engines consumed %d distinct positions, up to %d",
								name, log.calls, log.distinct(), log.furthest)
						}
						crossed := false
						for j := 0; j+1 < len(log.starts); j++ {
							crossed = crossed || log.ends[j] > log.starts[j+1]
						}
						if crossed != sc.crosses {
							t.Errorf("%s store: detailed reads cross the next interval start: %v, want %v (starts %v, ends %v)",
								name, crossed, sc.crosses, log.starts, log.ends)
						}
						if stateful {
							checkStoredGen(t, name, spec.Bench, store)
						}
						if !stateful {
							hidden[i] = outcome{st, sum, io}
							if i == 0 {
								continue
							}
						}
						ref := hidden[0]
						if stateful {
							ref = hidden[i]
							if io != ref.io {
								t.Errorf("%s store: io = %+v, hidden-state column %+v", name, io, ref.io)
							}
						}
						if !reflect.DeepEqual(st, ref.st) {
							t.Errorf("%s store: stats differ\ngot:  %+v\nwant: %+v", name, st, ref.st)
						}
						if !reflect.DeepEqual(sum, ref.sum) {
							t.Errorf("%s store: summary %+v, want %+v", name, sum, ref.sum)
						}
					}
				}
			}
		})
	}
}

// failures makes chosen engine calls of a sampled run panic. Its counters
// are shared by the engines of one run, which run on two goroutines.
type failures struct {
	mu                  sync.Mutex
	runs, warms         int
	failRun, failWarm   int // the Run and WarmFunctional calls that panic, counting from 1
	runValue, warmValue any
}

// failingEngine panics on the calls its failures choose.
type failingEngine struct {
	sample.Engine
	f *failures
}

func (e *failingEngine) Run(g trace.Generator, warmup, measure uint64) *pipeline.Stats {
	e.f.mu.Lock()
	e.f.runs++
	fail := e.f.runs == e.f.failRun
	e.f.mu.Unlock()
	if fail {
		panic(e.f.runValue)
	}
	return e.Engine.Run(g, warmup, measure)
}

func (e *failingEngine) WarmFunctional(g trace.Generator, n uint64) {
	e.f.mu.Lock()
	e.f.warms++
	fail := e.f.warms == e.f.failWarm
	e.f.mu.Unlock()
	if fail {
		panic(e.f.warmValue)
	}
	e.Engine.WarmFunctional(g, n)
}

// failingGen panics on its failAt-th Next call. The tape calls it under its
// lock, which orders the calls from the run's goroutines.
type failingGen struct {
	trace.Generator
	calls, failAt uint64
	value         any
}

func (g *failingGen) Next() isa.Instr {
	if g.calls++; g.calls == g.failAt {
		panic(g.value)
	}
	return g.Generator.Next()
}

// TestRunReraisesPanics runs every interval beside the walk and makes the
// run fail: in an interval, in the walk while an interval is in flight, in
// both, and in the generator they share, at a position an interval reads
// and at one only the walk reaches. Run's caller recovers the failing
// call's own value — the interval's when both fail, since it comes first in
// interval order — and no goroutine the run started is left running, as
// the engine's feed does for generator panics (TestFeedReraisesGeneratorPanic).
func TestRunReraisesPanics(t *testing.T) {
	spec := sim.OOOSpec("mcf", ooo.R10K64(), 10_000, 200_000)
	spec.Sample = sample.DefaultPlan()
	intervalErr := errors.New("interval 1 failed")
	walkErr := errors.New("the walk to checkpoint 1 failed")
	genErr := errors.New("the generator failed")
	for _, c := range []struct {
		name   string
		f      *failures
		failAt uint64 // the generator's Next call that panics; 0 for none
		want   error
	}{
		// Interval 1 runs while the walk warms toward checkpoint 2 (the
		// third WarmFunctional call).
		{"interval", &failures{failRun: 2, runValue: intervalErr}, 0, intervalErr},
		{"walk", &failures{failWarm: 2, warmValue: walkErr}, 0, walkErr},
		{"both", &failures{failRun: 2, runValue: intervalErr, failWarm: 3, warmValue: walkErr}, 0, intervalErr},
		// Interval 0 reads about 5k instructions from position 10k; the walk
		// passes every position up to checkpoint 1 at 60k.
		{"generator in an interval's reach", &failures{}, 12_000, genErr},
		{"generator past an interval's reach", &failures{}, 40_000, genErr},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			f := c.f
			g := workload.MustNew(spec.Bench)
			cfg := sample.Config{
				Bench:      spec.Bench,
				NewEngine:  func() sample.Engine { return &failingEngine{Engine: spec.NewEngine(), f: f} },
				NewGen:     func() trace.Generator { return &failingGen{Generator: g, failAt: c.failAt, value: genErr} },
				WarmRanges: g.WarmRanges(),
				Warmup:     spec.Warmup,
				Measure:    spec.Measure,
				Plan:       spec.SamplePlan(),
				LendCPU:    grant,
			}
			got := func() (v any) {
				defer func() { v = recover() }()
				sample.Run(cfg)
				return nil
			}()
			if got != c.want {
				t.Errorf("recovered %v, want %v", got, c.want)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
