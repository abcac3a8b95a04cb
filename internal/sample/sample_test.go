package sample_test

import (
	"fmt"
	"reflect"
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
	ends     []uint64 // per detailed interval: start and furthest read
	diverged bool     // a mismatch was reported; later ones follow from it
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
	e.Engine.WarmFunctional(e.check(g), n)
}

func (e *checkedEngine) Run(g trace.Generator, warmup, measure uint64) *pipeline.Stats {
	c := e.check(g)
	st := e.Engine.Run(c, warmup, measure)
	e.log.starts = append(e.log.starts, c.start)
	e.log.ends = append(e.log.ends, e.pos)
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
// engines and a counted generator. serve picks which stored checkpoint, if
// any, a Load of pos returns.
func runLogged(t *testing.T, spec sim.RunSpec, store memStore, serve func(pos uint64) (uint64, bool)) (*pipeline.Stats, *sample.Summary, sample.IO, *streamLog) {
	t.Helper()
	log := &streamLog{t: t, bench: spec.Bench}
	g := workload.MustNew(spec.Bench)
	cfg := sample.Config{
		Bench:     spec.Bench,
		NewEngine: func() sample.Engine { return &checkedEngine{Engine: spec.NewEngine(), log: log} },
		NewGen: func() trace.Generator {
			log.newGens++
			return &countingGen{Generator: workload.MustNew(spec.Bench), log: log}
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

// TestRunGeneratesEachInstructionOnce pins the single stream walk: whether
// every checkpoint is computed, every one is reloaded, or they alternate,
// sample.Run builds one generator and calls Next exactly once per stream
// position it reaches, every engine sees the stream's own instructions at
// its positions, and the results do not depend on the store. A checkpoint
// filed under the wrong position counts as a miss. The 2k/8k plan's
// intervals tile their stride, so detailed reads cross the next interval
// start there.
func TestRunGeneratesEachInstructionOnce(t *testing.T) {
	for _, sc := range []struct {
		warmup, measure uint64
		crosses         bool
	}{
		{10_000, 1_000_000, false},
		{2_000, 8_000, true},
	} {
		spec := sim.DKIPSpec("mcf", core.Config{}, sc.warmup, sc.measure)
		spec.Sample = sample.DefaultPlan()
		stride := sc.measure / 4
		t.Run(fmt.Sprintf("%d+%d", sc.warmup, sc.measure), func(t *testing.T) {
			store := memStore{}
			var wantSt *pipeline.Stats
			var wantSum *sample.Summary
			for i, state := range []struct {
				name  string
				serve func(pos uint64) (uint64, bool)
				hits  uint64
			}{
				{"empty", func(pos uint64) (uint64, bool) { return pos, false }, 0},
				{"full", func(pos uint64) (uint64, bool) { return pos, true }, 4},
				{"every-other", func(pos uint64) (uint64, bool) { return pos, (pos-sc.warmup)/stride%2 == 0 }, 2},
				{"misfiled", func(pos uint64) (uint64, bool) { return pos + stride, true }, 0},
			} {
				st, sum, io, log := runLogged(t, spec, store, state.serve)
				if io.Hits != state.hits || io.Hits+io.Misses != 4 {
					t.Errorf("%s store: io = %+v, want %d hits of 4", state.name, io, state.hits)
				}
				if log.newGens != 1 {
					t.Errorf("%s store: NewGen called %d times, want once", state.name, log.newGens)
				}
				if log.calls != log.furthest {
					t.Errorf("%s store: %d Next calls for %d stream positions", state.name, log.calls, log.furthest)
				}
				crossed := false
				for j := 0; j+1 < len(log.starts); j++ {
					crossed = crossed || log.ends[j] > log.starts[j+1]
				}
				if crossed != sc.crosses {
					t.Errorf("%s store: detailed reads cross the next interval start: %v, want %v (starts %v, ends %v)",
						state.name, crossed, sc.crosses, log.starts, log.ends)
				}
				if i == 0 {
					wantSt, wantSum = st, sum
					continue
				}
				if !reflect.DeepEqual(st, wantSt) {
					t.Errorf("%s store: stats differ from the empty store's\ngot:  %+v\nwant: %+v", state.name, st, wantSt)
				}
				if !reflect.DeepEqual(sum, wantSum) {
					t.Errorf("%s store: summary %+v, want %+v", state.name, sum, wantSum)
				}
			}
		})
	}
}
