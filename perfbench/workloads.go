package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dkip/internal/sample"
	"dkip/internal/sim"
)

// env is what every workload's set-up receives.
type env struct {
	seed    uint64
	workers int
	// dir is a working directory private to one set-up.
	dir string
}

// instance is one set-up workload, ready to run passes of its fixed work.
type instance interface {
	// pass runs the fixed work once and checks its outputs; tr is nil when
	// tracing is off.
	pass(tr *tracer) (passResult, error)
	// finish runs the checks that need the whole run and returns how many
	// operations they failed.
	finish(tr *tracer) int
	close()
}

// passResult is one pass over a workload's fixed work.
type passResult struct {
	wall time.Duration
	ops  []opRecord
	// counts are the pass's Runner counters: the program's own when
	// fromRunner, else the benchmark's tally of the same events in a traced
	// sweep, which calls each layer itself instead of going through a
	// Runner.
	counts     sim.Metrics
	fromRunner bool
	// peakMiB is the peak resident memory of the process during the pass.
	peakMiB float64
	// note reports exact counters of the pass for the human-readable
	// output.
	note string
}

// workloadDef describes one workload.
type workloadDef struct {
	name string
	// workers is how many closed-loop workers or clients the workload
	// runs, at most two so a run fits a two-CPU host.
	workers int
	// tracedPasses is how many untraced and how many traced passes a
	// traced run makes.
	tracedPasses int
	// repeats is set when every pass does the same work, so two passes
	// must produce the same exact counts.
	repeats bool
	setUp   func(e *env) (instance, error)
}

// The sweeps run one worker: with two, the seeded order would decide how
// long a pass takes, by which runs end up alone at the end of a batch, and
// how fast each run is, by which run shares the CPUs' caches with it.
var workloads = []workloadDef{
	{"grid-detailed", 1, 3, true, setUpGrid},
	{"sampled-ckpt", 1, 3, true, setUpSampled},
	{"daemon-mixed", 2, 10, false, setUpDaemon},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// reportFailure prints a failed output check to standard error; the caller
// counts it.
func reportFailure(err error) {
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
}

// gridRun is grid-detailed: a cold, full-detail sweep through an uncached
// Runner, one batch per architecture.
type gridRun struct {
	env     *env
	batches []batch
	runner  *sim.Runner
	golden  map[string]goldenRecord
	pins    map[string]string
}

func setUpGrid(e *env) (instance, error) {
	golden, err := loadGolden(goldenPath)
	if err != nil {
		return nil, err
	}
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	batches := gridBatches()
	shuffle(batches, e.seed)
	g := &gridRun{env: e, batches: batches, golden: golden, pins: pins,
		runner: sim.NewRunner(sim.NoMemo(), sim.Parallel(e.workers))}
	// Warm up with one untimed simulation per architecture.
	for _, b := range batches {
		if _, err := g.runner.Run(b.specs[0]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (g *gridRun) pass(tr *tracer) (passResult, error) {
	if tr != nil {
		before := tr.simCounts()
		p := runChecked(g.batches, g.env.workers, func(s sim.RunSpec) (*sim.Result, error) { return tracedRun(tr, s, nil) }, g.check)
		p.counts = since(tr.simCounts(), before)
		return p, nil
	}
	before := g.runner.Metrics()
	p := runChecked(g.batches, g.env.workers, g.runner.Run, g.check)
	p.counts, p.fromRunner = since(g.runner.Metrics(), before), true
	return p, nil
}

func (g *gridRun) check(spec sim.RunSpec, res *sim.Result) error {
	if spec.Arch == sim.ArchInorder {
		return checkPinned(g.pins, spec.Key(), res)
	}
	return checkGolden(g.golden, spec.Key(), res)
}

func (g *gridRun) finish(*tracer) int { return 0 }
func (g *gridRun) close()             {}

// runChecked runs the batches one after another, times them as one pass,
// then checks every result.
func runChecked(batches []batch, workers int, run func(sim.RunSpec) (*sim.Result, error), check func(sim.RunSpec, *sim.Result) error) passResult {
	var p passResult
	var specs []sim.RunSpec
	var results []*sim.Result
	start := time.Now()
	for _, b := range batches {
		ops, res := runBatch(b.specs, workers, run)
		p.ops = append(p.ops, ops...)
		specs = append(specs, b.specs...)
		results = append(results, res...)
	}
	p.wall = time.Since(start)
	for i, res := range results {
		if p.ops[i].failed {
			reportFailure(fmt.Errorf("%s: run failed", specs[i].Label()))
			continue
		}
		if err := check(specs[i], res); err != nil {
			p.ops[i].failed = true
			reportFailure(err)
		}
	}
	return p
}

// sampledRun is sampled-ckpt: the sampled sweep through a Runner backed by
// a Store that starts empty on every pass.
type sampledRun struct {
	env     *env
	batches []batch
	pins    map[string]string
	passes  int
}

func setUpSampled(e *env) (instance, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	batches := sampledBatches()
	shuffle(batches, e.seed)
	s := &sampledRun{env: e, batches: batches, pins: pins}
	// Warm up with one untimed quick-scale sampled run per machine of the
	// first batch, through a store of its own.
	store, err := sim.OpenStore(filepath.Join(e.dir, "prime"))
	if err != nil {
		return nil, err
	}
	r := sim.NewRunner(sim.WithStore(store), sim.Parallel(e.workers))
	for _, m := range []machine{fig9Machines[3], fig9Machines[0], inorderMachine} {
		spec := m.mk("swim", quickWarmup, quickMeasure)
		spec.Sample = sample.DefaultPlan()
		if _, err := r.Run(spec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *sampledRun) pass(tr *tracer) (passResult, error) {
	s.passes++
	dir := filepath.Join(s.env.dir, fmt.Sprintf("pass-%d", s.passes))
	defer os.RemoveAll(dir)
	store, err := sim.OpenStore(dir)
	if err != nil {
		return passResult{}, err
	}
	check := func(spec sim.RunSpec, res *sim.Result) error {
		return checkPinned(s.pins, spec.Key(), res)
	}
	if tr != nil {
		before := tr.simCounts()
		p := runChecked(s.batches, s.env.workers, func(spec sim.RunSpec) (*sim.Result, error) { return tracedRun(tr, spec, store) }, check)
		p.counts = since(tr.simCounts(), before)
		return p, nil
	}
	runner := sim.NewRunner(sim.WithStore(store), sim.Parallel(s.env.workers))
	p := runChecked(s.batches, s.env.workers, runner.Run, check)
	m := runner.Metrics()
	p.counts, p.fromRunner = m, true
	p.note = fmt.Sprintf("checkpoints hits/misses/writes %d/%d/%d", m.CheckpointHits, m.CheckpointMisses, m.CheckpointWrites)
	return p, nil
}

func (s *sampledRun) finish(*tracer) int { return 0 }
func (s *sampledRun) close()             {}

// since returns the counts a Runner added between two snapshots.
func since(after, before sim.Metrics) sim.Metrics {
	return sim.Metrics{
		Requested:        after.Requested - before.Requested,
		Simulated:        after.Simulated - before.Simulated,
		Deduped:          after.Deduped - before.Deduped,
		CacheHits:        after.CacheHits - before.CacheHits,
		DiskHits:         after.DiskHits - before.DiskHits,
		DiskWrites:       after.DiskWrites - before.DiskWrites,
		Skipped:          after.Skipped - before.Skipped,
		Uncacheable:      after.Uncacheable - before.Uncacheable,
		CheckpointHits:   after.CheckpointHits - before.CheckpointHits,
		CheckpointMisses: after.CheckpointMisses - before.CheckpointMisses,
		CheckpointWrites: after.CheckpointWrites - before.CheckpointWrites,
	}
}
