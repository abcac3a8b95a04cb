package sample_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dkip/internal/ckpt"
	"dkip/internal/core"
	"dkip/internal/isa"
	"dkip/internal/pipeline"
	"dkip/internal/sample"
	"dkip/internal/sim"
	"dkip/internal/trace"
	"dkip/internal/workload"
)

// streamLog follows one sampled run's use of its instruction stream.
type streamLog struct {
	t        *testing.T
	bench    string
	newGens  int
	calls    uint64 // Next calls on the run's generators
	furthest uint64 // furthest stream position any engine consumed
	starts   []uint64
	ends     []uint64    // per detailed interval: start and furthest read
	consumed [][2]uint64 // per engine call: the stream range it consumed
	diverged bool        // a mismatch was reported; later ones follow from it
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
	g.log.calls++
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
	e.log.consumed = append(e.log.consumed, [2]uint64{c.start, e.pos})
}

func (e *checkedEngine) Run(g trace.Generator, warmup, measure uint64) *pipeline.Stats {
	c := e.check(g)
	st := e.Engine.Run(c, warmup, measure)
	e.log.starts = append(e.log.starts, c.start)
	e.log.ends = append(e.log.ends, e.pos)
	e.log.consumed = append(e.log.consumed, [2]uint64{c.start, e.pos})
	return st
}

func (e *checkedEngine) check(g trace.Generator) *checkedGen {
	ref := workload.MustNew(e.log.bench)
	for i := uint64(0); i < e.pos; i++ {
		ref.Next()
	}
	return &checkedGen{Generator: g, e: e, ref: ref, start: e.pos}
}

type checkedGen struct {
	trace.Generator
	e     *checkedEngine
	ref   trace.Generator
	start uint64
}

// Next runs on the engine's feed goroutine, where t.Fatalf must not be
// called: a mismatch is reported with t.Errorf, once per run.
func (g *checkedGen) Next() isa.Instr {
	in, want := g.Generator.Next(), g.ref.Next()
	if in != want && !g.e.log.diverged {
		g.e.log.diverged = true
		g.e.log.t.Errorf("stream position %d: engine got %v, want %v", g.e.pos, &in, &want)
	}
	g.e.pos++
	if g.e.pos > g.e.log.furthest {
		g.e.log.furthest = g.e.pos
	}
	return in
}

// memStore is an in-memory checkpoint store holding encoded checkpoints, so
// every Load decodes a fresh copy as the real stores do.
type memStore map[uint64][]byte

// runLogged runs spec's sampled simulation through sample.Run with checked
// engines and a counted generator, which forwards the generator's state
// methods when stateful is set. serve picks which stored checkpoint, if
// any, a Load of pos returns.
func runLogged(t *testing.T, spec sim.RunSpec, store memStore, serve func(pos uint64) (uint64, bool), stateful bool) (*pipeline.Stats, *sample.Summary, sample.IO, *streamLog) {
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
		Store: func(c *ckpt.Checkpoint) { store[c.Pos] = ckpt.Encode(c) },
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
func TestRunGeneratesEachInstructionOnce(t *testing.T) {
	for _, sc := range []struct {
		warmup, measure uint64
		crosses         bool
		columns         []bool // which generators run: stateful or not
	}{
		{10_000, 1_000_000, false, []bool{false}},
		{10_000, 200_000, false, []bool{false, true}},
		{2_000, 8_000, true, []bool{false, true}},
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
			hidden := make([]outcome, len(states))
			for _, stateful := range sc.columns {
				column := "hidden-state"
				if stateful {
					column = "stateful"
				}
				store := memStore{}
				for i, state := range states {
					st, sum, io, log := runLogged(t, spec, store, state.serve, stateful)
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
		})
	}
}
