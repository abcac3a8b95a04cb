// Command perfbench is the repository benchmark. It drives three workloads
// through the public APIs of internal/sim, internal/sample and
// internal/serve, checks every simulated output, and prints each metric by
// name with its unit and sample count. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 1.7, "unit": "s"}, ...}}
//
// Run it from the repository root through the wrapper, which builds this
// package first:
//
//	bash perfbench/run.sh --workload grid-detailed --seed 1 --seconds 25 --trace 0
//
// --workload all runs every workload in turn, each in a process of its own
// and ending with its own result line.
//
// With --trace 0 the run repeats its workload's fixed work, one pass after
// another, until --seconds have been measured (at least minPasses passes),
// and reports the end-to-end metrics as medians over passes. With
// --trace 1 it alternates a fixed number of untraced and traced passes,
// records spans around every layer call the benchmark makes, writes them to
// .bench_build/spans/, and reports the per-layer metrics, self time per
// layer, and the tracing overhead. The metric names and units are the ones
// BENCHMARK.json declares.
//
// Workloads:
//
//   - grid-detailed: every fresh simulation's cost. The 132 distinct specs
//     of the differential golden plus the in-order core on all 26
//     benchmarks, at QuickScale, through an uncached Runner, one batch per
//     architecture.
//   - sampled-ckpt: the sampled sweep. The Figure 9 machines and the in-order
//     core on three benchmarks under the default sampling plan at the
//     sampling-accuracy scale, through a Runner on a Store that starts empty
//     on every pass, so checkpoints are written once and read back.
//   - daemon-mixed: dkipd traffic. Two closed-loop clients post specs drawn
//     from a primed pool to an in-process daemon; about one request in twenty
//     names a spec the daemon has never seen.
//
// The seed drives the order in which specs enter each sweep batch and the
// daemon request sequence; the program sees only the generated specs. Seed
// 7919 is held out: use it to re-check a claim made with other seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"dkip/internal/sim"
)

const (
	// buildDir holds everything a run writes, inside the checkout.
	buildDir = ".bench_build"
	// setupRepeats is how many times a run sets its workload up; setup_s
	// is the median.
	setupRepeats = 7
	// minPasses is the fewest passes an untraced run makes, however long
	// they take, so every figure is a median of at least this many.
	minPasses = 3
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: grid-detailed, sampled-ckpt, daemon-mixed, or all of them in turn")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long the untraced run measures, in seconds")
	traced := fs.Int("trace", 0, "1 for the traced per-layer run")
	pin := fs.Bool("pin", false, "regenerate the pinned digests of the in-order and sampled records, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := os.Stat(goldenPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 1
	}
	if *pin {
		if err := pinDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (trace %d, seconds %g)\n", *traced, *seconds)
		return 2
	}
	if *name == "all" {
		return runAll(args)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	ms, err := loadMetrics(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := runWorkload(w, ms, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// runAll runs every workload in a process of its own, one after another,
// so each reports its own peak memory. args are the command's arguments;
// the last --workload flag wins.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runWorkload sets one workload up, runs it and prints its report.
func runWorkload(w workloadDef, ms metricSet, seed uint64, seconds float64, traced bool) error {
	runDir := filepath.Join(buildDir, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir)
	workers := min(w.workers, runtime.GOMAXPROCS(0))
	inst, setup, err := setUp(w, seed, workers, runDir)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	fmt.Printf("perfbench %s seed=%d traced=%t workers=%d\n", w.name, seed, traced, workers)
	if traced {
		return tracedMain(w, ms.perLayer, inst, seed)
	}
	return measuredMain(ms.endToEnd, inst, setup, time.Duration(seconds*float64(time.Second)))
}

// setUp sets the workload up setupRepeats times, keeping the last instance,
// and returns the median set-up time in seconds.
func setUp(w workloadDef, seed uint64, workers int, runDir string) (instance, float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		e := &env{seed: seed, workers: workers, dir: filepath.Join(runDir, fmt.Sprintf("setup-%d", i))}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = w.setUp(e); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, median(times), nil
}

// outcome counts operations and their failures.
type outcome struct {
	attempted, failed int
}

func (o *outcome) add(p passResult) {
	o.attempted += len(p.ops)
	for _, op := range p.ops {
		if op.failed {
			o.failed++
		}
	}
}

// measuredMain runs passes until their measured time reaches budget and at
// least minPasses have run, then reports the end-to-end metrics.
func measuredMain(defs []metricDef, inst instance, setup float64, budget time.Duration) error {
	var passes []passResult
	var out outcome
	var measured time.Duration
	for len(passes) < minPasses || measured < budget {
		// Every pass starts from a collected heap, so garbage left by the
		// set-up or the previous pass does not shift its collections, and
		// with the memory it freed returned, so its peak is its own.
		if err := resetPeakRSS(); err != nil {
			return err
		}
		p, err := inst.pass(nil)
		if err != nil {
			return err
		}
		if p.peakMiB, err = peakRSSMiB(); err != nil {
			return err
		}
		passes = append(passes, p)
		measured += p.wall
		out.add(p)
	}
	out.failed += inst.finish(nil)
	if note := passes[0].note; note != "" {
		fmt.Printf("  per pass: %s\n", note)
	}
	vals := endToEndValues(passes, setup, setupRepeats)
	return report(defs, vals, out)
}

// tracedMain alternates untraced and traced passes, then reports the
// per-layer metrics, the self time of every layer, and the span dump. On
// the sweeps, where every pass repeats the same work, each traced pass must
// reproduce the program's own counters from the untraced pass before it; a
// mismatch fails the run.
func tracedMain(w workloadDef, defs []metricDef, inst instance, seed uint64) error {
	tr := newTracer()
	var out outcome
	var plain, traced []float64
	// Runtime counters cover the untraced passes only, so tracing's own
	// allocations never show in them.
	var rt runtimeSample
	// counts sums the program's Runner counters over the passes that went
	// through a Runner.
	var counts sim.Metrics
	var counted int
	for i := 0; i < w.tracedPasses; i++ {
		runtime.GC()
		before := readRuntime()
		p, err := inst.pass(nil)
		if err != nil {
			return err
		}
		rt = rt.plus(readRuntime().minus(before))
		runtime.GC()
		q, err := inst.pass(tr)
		if err != nil {
			return err
		}
		plain = append(plain, p.wall.Seconds())
		traced = append(traced, q.wall.Seconds())
		out.add(p)
		out.add(q)
		if w.repeats {
			out.attempted++
			if err := sameCounts(p.counts, q.counts); err != nil {
				out.failed++
				reportFailure(fmt.Errorf("traced pass %d did other work than the untraced one: %w", i+1, err))
			}
		}
		for _, x := range []passResult{p, q} {
			if x.fromRunner {
				counts = counts.Plus(x.counts)
				counted++
			}
		}
	}
	out.failed += inst.finish(tr)

	kb := map[sim.Arch]float64{}
	for a, x := range tr.obs.arch {
		if x.constructs > 0 {
			kb[a] = constructKB(x.spec, 5)
		}
	}
	vals := perLayerValues(tr, rt, w.tracedPasses, kb, median(traced)/median(plain)-1)
	for n, x := range runnerValues(counts, counted) {
		vals[n] = x
	}

	tr.mu.Lock()
	agg := aggregateSpans(tr.spans)
	nspans := len(tr.spans)
	tr.mu.Unlock()
	fmt.Printf("  self time per layer over %d traced passes (%d spans):\n", w.tracedPasses, nspans)
	for _, n := range selfByName(agg) {
		a := agg[n]
		fmt.Printf("    %-20s %10.1f ms self  %10.1f ms total  %7d spans\n", n, float64(a.self)/1e6, float64(a.total)/1e6, a.count)
	}
	path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeSpans(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("  spans written to %s\n", path)
	fmt.Printf("  untraced pass %.4f s, traced pass %.4f s (medians of %d); clock read %.1f ns\n", median(plain), median(traced), w.tracedPasses, tr.clockNs)
	fmt.Printf("  counts are per pass\n")

	vs := make(map[string]value, len(vals))
	for n, x := range vals {
		vs[n] = value{v: x}
	}
	return report(defs, vs, out)
}

// sameCounts compares the exact counters of two passes over the same work:
// what was simulated, what the store served and kept, and the checkpoint
// traffic.
func sameCounts(a, b sim.Metrics) error {
	for _, c := range []struct {
		name string
		a, b uint64
	}{
		{"requested", a.Requested, b.Requested},
		{"simulated", a.Simulated, b.Simulated},
		{"disk hits", a.DiskHits, b.DiskHits},
		{"disk writes", a.DiskWrites, b.DiskWrites},
		{"checkpoint hits", a.CheckpointHits, b.CheckpointHits},
		{"checkpoint misses", a.CheckpointMisses, b.CheckpointMisses},
		{"checkpoint writes", a.CheckpointWrites, b.CheckpointWrites},
	} {
		if c.a != c.b {
			return fmt.Errorf("%s %d untraced, %d traced", c.name, c.a, c.b)
		}
	}
	return nil
}

// report prints every metric of defs by name and unit, then the result
// line. A metric the workload does not produce prints as n/a and reports 0;
// a value under a name defs does not declare is an error.
func report(defs []metricDef, vals map[string]value, out outcome) error {
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.name] = true
	}
	for n := range vals {
		if !declared[n] {
			return fmt.Errorf("metric %s is not declared in %s", n, benchPath)
		}
	}
	failFrac := ratio(float64(out.failed), float64(out.attempted))
	fmt.Printf("  %-34s %d of %d operations (fail_frac %g)\n", "failed", out.failed, out.attempted, failFrac)
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jv, len(defs))
	for _, d := range defs {
		x, ok := vals[d.name]
		if !ok {
			fmt.Printf("  %-34s n/a\n", d.name)
		} else {
			fmt.Printf("  %-34s %-14.6g %-14s %s\n", d.name, x.v, d.unit, x.note)
		}
		metrics[d.name] = jv{finite(x.v), d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// pinDigests regenerates the pinned digests of the records no golden
// covers. Run it from the repository root when a behaviour change is
// intended:
//
//	bash perfbench/run.sh -pin
func pinDigests() error {
	dir := filepath.Join(buildDir, fmt.Sprintf("pin-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	store, err := sim.OpenStore(dir)
	if err != nil {
		return err
	}
	r := sim.NewRunner(sim.WithStore(store))
	pins := map[string]string{}
	for _, b := range append(gridBatches()[2:], sampledBatches()...) {
		results, err := r.RunAll(b.specs)
		if err != nil {
			return err
		}
		for _, res := range results {
			pins[res.Key] = digest(res.Stats, res.Sampled)
		}
	}
	data, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(pinPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("pinned %d digests to %s\n", len(pins), pinPath)
	return nil
}
