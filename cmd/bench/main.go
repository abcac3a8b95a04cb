// Command bench emits a machine-readable throughput snapshot of the raw
// simulator: sustained instrs/s and allocation counts per architecture —
// the spec set the root harness's BenchmarkSimulatorRaw measures (default
// D-KIP on swim, R10-64 on mcf; memo cache disabled, so every iteration
// re-simulates) plus the in-order calibration core on swim.
//
// The snapshot is written as one labeled entry in a JSON file, so a single
// file can carry a trajectory:
//
//	go run ./cmd/bench -label pre-pr5  -out BENCH_PR5.json
//	go run ./cmd/bench -label post-pr5 -out BENCH_PR5.json
//
// Existing entries under other labels are preserved. BENCH_PR5.json at the
// repo root records the PR 5 before/after pair; CI regenerates a fresh
// snapshot per run and diffs its instrs/s against the published
// BENCH_baseline.json artifact (see .github/workflows/ci.yml and the README
// "Performance" section).
//
// Each arch also records what a fresh simulation pays before its first
// cycle: the time, allocations and bytes of building the engine and warming
// its caches over the workload's ranges (NewEngine plus Hierarchy.Warm),
// averaged over the iterations and measured apart from the runs.
//
// Each entry records GOMAXPROCS and the host's CPU count: the engine
// generates instructions on a goroutine beside the cycle loop, so
// throughput depends on whether a second CPU is free, and only entries
// with equal values compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"dkip/internal/sim"
	"dkip/internal/workload"
)

// archResult is one architecture's measurement.
type archResult struct {
	Bench        string  `json:"bench"`
	Iterations   int     `json:"iterations"`
	Instrs       uint64  `json:"instrs"`
	ElapsedNS    int64   `json:"elapsed_ns"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
	BytesPerOp   uint64  `json:"bytes_per_op"`
	// Set-up per simulation: NewEngine plus Hierarchy.Warm. Absent from
	// entries written before it was recorded.
	SetupNSPerOp     int64  `json:"setup_ns_per_op,omitempty"`
	SetupAllocsPerOp uint64 `json:"setup_allocs_per_op,omitempty"`
	SetupBytesPerOp  uint64 `json:"setup_bytes_per_op,omitempty"`
}

// snapshot is one labeled benchmark run. GOMAXPROCS and NumCPU are absent
// from entries written before they were recorded, and stay absent when such
// a file is merged into.
type snapshot struct {
	GoVersion         string                `json:"go_version"`
	GOARCH            string                `json:"goarch"`
	GOMAXPROCS        int                   `json:"gomaxprocs,omitempty"`
	NumCPU            int                   `json:"num_cpu,omitempty"`
	Warmup            uint64                `json:"warmup"`
	Measure           uint64                `json:"measure"`
	Archs             map[string]archResult `json:"archs"`
	TotalInstrsPerSec float64               `json:"total_instrs_per_sec"`
}

func main() {
	out := flag.String("out", "BENCH_PR5.json", "snapshot file to create or update ('-' for stdout)")
	label := flag.String("label", "current", "entry name for this run within the snapshot file")
	iters := flag.Int("iters", 20, "simulation iterations per architecture")
	warmup := flag.Uint64("warmup", 5_000, "warmup instructions per simulation")
	measure := flag.Uint64("measure", 20_000, "measured instructions per simulation")
	flag.Parse()
	if *iters <= 0 || *measure == 0 {
		fmt.Fprintln(os.Stderr, "bench: -iters and -measure must be positive")
		os.Exit(2)
	}

	specs := map[string]sim.RunSpec{
		"dkip":    sim.MustPresetSpec("dkip", "swim", *warmup, *measure),
		"ooo":     sim.MustPresetSpec("r10-64", "mcf", *warmup, *measure),
		"inorder": sim.MustPresetSpec("inorder", "swim", *warmup, *measure),
	}

	snap := snapshot{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Warmup:     *warmup,
		Measure:    *measure,
		Archs:      make(map[string]archResult, len(specs)),
	}
	var totalInstrs uint64
	var totalElapsed time.Duration
	for _, name := range measureOrder(specs) {
		res, err := measureArch(specs[name], *iters)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		snap.Archs[name] = res
		totalInstrs += res.Instrs
		totalElapsed += time.Duration(res.ElapsedNS)
	}
	snap.TotalInstrsPerSec = float64(totalInstrs) / totalElapsed.Seconds()

	if err := writeSnapshot(*out, *label, snap); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %.0f instrs/s over %d iterations (GOMAXPROCS %d, %d CPUs)\n",
		*label, snap.TotalInstrsPerSec, *iters, snap.GOMAXPROCS, snap.NumCPU)
	for _, name := range measureOrder(specs) {
		a := snap.Archs[name]
		fmt.Fprintf(os.Stderr, "bench: %s set-up: %.3f ms, %d allocs, %d KB per simulation\n",
			name, float64(a.SetupNSPerOp)/1e6, a.SetupAllocsPerOp, a.SetupBytesPerOp>>10)
	}
}

// measureArch simulates spec iters times through an uncached runner,
// timing the whole batch and counting allocations around it.
func measureArch(spec sim.RunSpec, iters int) (archResult, error) {
	r := sim.NewRunner(sim.NoMemo())
	// One untimed priming run so one-time process costs (workload profile
	// registry, page faults on fresh heap) don't land in the first sample.
	if _, err := r.Run(spec); err != nil {
		return archResult{}, err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var instrs uint64
	for i := 0; i < iters; i++ {
		res, err := r.Run(spec)
		if err != nil {
			return archResult{}, err
		}
		instrs += res.Stats.Committed
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	res := archResult{
		Bench:        spec.Bench,
		Iterations:   iters,
		Instrs:       instrs,
		ElapsedNS:    elapsed.Nanoseconds(),
		InstrsPerSec: float64(instrs) / elapsed.Seconds(),
		AllocsPerOp:  (after.Mallocs - before.Mallocs) / uint64(iters),
		BytesPerOp:   (after.TotalAlloc - before.TotalAlloc) / uint64(iters),
	}
	res.SetupNSPerOp, res.SetupAllocsPerOp, res.SetupBytesPerOp = measureSetup(spec, iters)
	return res, nil
}

// measureSetup builds spec's engine and warms its caches over the
// workload's ranges iters times, as every fresh simulation does before its
// first cycle, and returns the time, allocations and bytes per set-up.
func measureSetup(spec sim.RunSpec, iters int) (ns int64, allocs, bytes uint64) {
	ranges := workload.MustNew(spec.Bench).WarmRanges()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		spec.NewEngine().Hierarchy().Warm(ranges)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := uint64(iters)
	return elapsed.Nanoseconds() / int64(iters), (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}

// writeSnapshot merges the labeled snapshot into the JSON file (or prints
// the whole file to stdout for "-").
func writeSnapshot(path, label string, snap snapshot) error {
	entries := map[string]snapshot{}
	if path != "-" {
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &entries); err != nil {
				return fmt.Errorf("existing %s is not a snapshot file: %w", path, err)
			}
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	entries[label] = snap
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// measureOrder returns the spec names in sorted order. Measuring in map
// iteration order would decide both the stderr log order and which arch
// warms the machine up for the other, making back-to-back snapshots subtly
// incomparable — the unsorted-map-feeding-output pattern dkipvet's
// determinism analyzer flags.
func measureOrder(specs map[string]sim.RunSpec) []string {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
