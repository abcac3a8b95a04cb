// Package dkip's root benchmark harness regenerates every table and figure
// of the paper's evaluation as a testing.B benchmark, one per artifact (see
// the registry in internal/experiments). Run all of them with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment at a reduced scale
// (use cmd/experiments for full-scale runs), reports headline numbers as
// custom metrics, and logs the full table once.
//
// Every experiment goes through one shared sim.Runner, so runs duplicated
// across figures (and across benchmark iterations) simulate once per
// `go test -bench` process; the sims/op metric reports how many real
// simulations each iteration cost after deduplication. Raw, uncached
// simulator speed is measured separately by BenchmarkSimulatorRaw.
package dkip

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"dkip/internal/core"
	"dkip/internal/experiments"
	"dkip/internal/inorder"
	"dkip/internal/kilo"
	"dkip/internal/ooo"
	"dkip/internal/sample"
	"dkip/internal/sim"
)

// runner is the Runner every experiment benchmark shares.
var runner = sim.NewRunner()

// cacheDir optionally backs the shared Runner with a persistent result
// store, so repeated `go test -bench` invocations warm-start:
//
//	go test -bench=. -cache-dir ~/.cache/dkip .
//
// On a warm store every experiment benchmark reports 0 sims/op — it then
// measures table assembly and cache service, not the simulator.
var cacheDir = flag.String("cache-dir", "", "persistent sim result store for warm-starting benchmark runs")

func TestMain(m *testing.M) {
	flag.Parse()
	if *cacheDir != "" {
		store, err := sim.OpenStore(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runner = sim.NewRunner(sim.WithStore(store))
	}
	os.Exit(m.Run())
}

// benchScale keeps every -bench=. sweep to seconds per experiment.
func benchScale() experiments.Scale {
	return experiments.Scale{Warmup: 5_000, Measure: 20_000}
}

// logOnce arranges for each experiment's table to be logged a single time
// even though testing.B reruns the body.
var logOnce sync.Map

// runExperiment executes one registered experiment per benchmark iteration
// through the shared Runner and reports cells of its last row as metrics,
// plus the number of real (post-dedup) simulations per iteration.
func runExperiment(b *testing.B, id string, metrics func(t *experiments.Table, b *testing.B)) {
	b.Helper()
	before := runner.Metrics().Simulated
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiments.RunWith(runner, id, benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	simulated := runner.Metrics().Simulated - before
	b.ReportMetric(float64(simulated)/float64(b.N), "sims/op")
	if _, dup := logOnce.LoadOrStore(id, true); !dup {
		b.Logf("\n%s", t.String())
	}
	if metrics != nil {
		metrics(t, b)
	}
}

// cell parses a table cell as a float metric. A cell that does not parse is
// a harness bug (a renamed or blank column), and silently reporting 0 would
// zero a headline benchmark number — fail loudly instead.
func cell(b *testing.B, t *experiments.Table, row, col int) float64 {
	b.Helper()
	if row < 0 || row >= len(t.Rows) || col < 0 || col >= len(t.Rows[row]) {
		b.Fatalf("table cell [%d][%d] out of range (%d rows)", row, col, len(t.Rows))
	}
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("table cell [%d][%d] = %q is not a numeric metric: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

// BenchmarkTable1Configs validates and prints the limit-study memory
// configurations (paper Table 1).
func BenchmarkTable1Configs(b *testing.B) {
	runExperiment(b, "table1", nil)
}

// BenchmarkTable2Defaults validates the invariant architecture parameters
// (paper Table 2) and the variable-parameter defaults (paper Table 3).
func BenchmarkTable2Defaults(b *testing.B) {
	runExperiment(b, "table2", nil)
	runExperiment(b, "table3", nil)
}

// BenchmarkFigure1WindowSweepInt regenerates Figure 1: SpecINT IPC vs window
// size under the six memory subsystems.
func BenchmarkFigure1WindowSweepInt(b *testing.B) {
	runExperiment(b, "fig1", func(t *experiments.Table, b *testing.B) {
		last := len(t.Rows) - 1
		b.ReportMetric(cell(b, t, last, len(t.Columns)-2), "IPC-MEM400-4K")
		b.ReportMetric(cell(b, t, 0, len(t.Columns)-2), "IPC-MEM400-32")
	})
}

// BenchmarkFigure2WindowSweepFP regenerates Figure 2: SpecFP IPC vs window
// size; the paper's point is near-total recovery at 4K entries.
func BenchmarkFigure2WindowSweepFP(b *testing.B) {
	runExperiment(b, "fig2", func(t *experiments.Table, b *testing.B) {
		last := len(t.Rows) - 1
		b.ReportMetric(cell(b, t, last, 1), "IPC-L1-4K")
		b.ReportMetric(cell(b, t, last, len(t.Columns)-2), "IPC-MEM400-4K")
	})
}

// BenchmarkFigure3IssueHistogram regenerates the decode→issue distance
// histogram that defines execution locality.
func BenchmarkFigure3IssueHistogram(b *testing.B) {
	runExperiment(b, "fig3", nil)
}

// BenchmarkFigure9Comparison regenerates the headline architecture
// comparison: R10-64, R10-256, KILO-1024, D-KIP-2048 on both suites.
func BenchmarkFigure9Comparison(b *testing.B) {
	runExperiment(b, "fig9", func(t *experiments.Table, b *testing.B) {
		b.ReportMetric(cell(b, t, 3, 2), "DKIP-FP-IPC")
		b.ReportMetric(cell(b, t, 3, 2)/cell(b, t, 0, 2), "DKIP-vs-R1064-FP")
	})
}

// BenchmarkFigure10SchedulerSweep regenerates the CP/MP scheduling-policy
// grid of Figure 10 (and the §4.3 percentages in its notes).
func BenchmarkFigure10SchedulerSweep(b *testing.B) {
	runExperiment(b, "fig10", func(t *experiments.Table, b *testing.B) {
		b.ReportMetric(cell(b, t, len(t.Rows)-1, len(t.Columns)-1), "IPC-OOO80-OOO40")
	})
}

// BenchmarkFigure11CacheSweepInt regenerates the SpecINT L2 sweep.
func BenchmarkFigure11CacheSweepInt(b *testing.B) {
	runExperiment(b, "fig11", nil)
}

// BenchmarkFigure12CacheSweepFP regenerates the SpecFP L2 sweep; the paper's
// claim is D-KIP cache-size tolerance.
func BenchmarkFigure12CacheSweepFP(b *testing.B) {
	runExperiment(b, "fig12", nil)
}

// BenchmarkFigure13LLIBOccupancyInt regenerates the integer-LLIB occupancy
// maxima (instructions and registers) per SpecINT benchmark.
func BenchmarkFigure13LLIBOccupancyInt(b *testing.B) {
	runExperiment(b, "fig13", nil)
}

// BenchmarkFigure14LLIBOccupancyFP regenerates the FP-LLIB occupancy maxima
// per SpecFP benchmark.
func BenchmarkFigure14LLIBOccupancyFP(b *testing.B) {
	runExperiment(b, "fig14", nil)
}

// BenchmarkSection43Scheduler regenerates the §4.3 text numbers.
func BenchmarkSection43Scheduler(b *testing.B) {
	runExperiment(b, "sec43", nil)
}

// BenchmarkSection44CPShare regenerates the §4.4 Cache-Processor share
// numbers.
func BenchmarkSection44CPShare(b *testing.B) {
	runExperiment(b, "sec44", nil)
}

// ---- ablation benches for the paper's design choices ----

// BenchmarkAblationAnalyzeStall quantifies the Analyze writeback-wait stall
// (§3.2: ~0.7% IPC).
func BenchmarkAblationAnalyzeStall(b *testing.B) {
	runExperiment(b, "ablation-analyze", nil)
}

// BenchmarkAblationAgingTimer sweeps the Aging-ROB timer.
func BenchmarkAblationAgingTimer(b *testing.B) {
	runExperiment(b, "ablation-aging", nil)
}

// BenchmarkAblationLLIBSize sweeps LLIB capacity.
func BenchmarkAblationLLIBSize(b *testing.B) {
	runExperiment(b, "ablation-llib", nil)
}

// BenchmarkAblationLLRFBanks compares the banked LLRF against ideal storage.
func BenchmarkAblationLLRFBanks(b *testing.B) {
	runExperiment(b, "ablation-llrf", nil)
}

// BenchmarkAblationSingleLLIB compares the paper's dual LLIB/MP organization
// against a merged single pair.
func BenchmarkAblationSingleLLIB(b *testing.B) {
	runExperiment(b, "ablation-singlellib", nil)
}

// BenchmarkAblationRunahead compares runahead execution — the related-work
// alternative the paper cites [23,24] — against the D-KIP.
func BenchmarkAblationRunahead(b *testing.B) {
	runExperiment(b, "ablation-runahead", nil)
}

// BenchmarkAblationCheckpoint compares checkpoint-placement policies under a
// replay-distance recovery model.
func BenchmarkAblationCheckpoint(b *testing.B) {
	runExperiment(b, "ablation-checkpoint", nil)
}

// BenchmarkAblationMSHR sweeps miss-status registers: how much memory-level
// parallelism the kilo-instruction window actually demands.
func BenchmarkAblationMSHR(b *testing.B) {
	runExperiment(b, "ablation-mshr", nil)
}

// BenchmarkAblationPrefetch pits next-line hardware prefetching against the
// decoupled window on both the small baseline and the D-KIP.
func BenchmarkAblationPrefetch(b *testing.B) {
	runExperiment(b, "ablation-prefetch", nil)
}

// ---- run-orchestration layer benches ----

// rawSpecs returns the specs BenchmarkSimulatorRaw simulates: the default
// D-KIP on one SpecFP workload and the R10-64 baseline on one SpecINT
// workload. cmd/bench runs the identical set, so its BENCH_*.json snapshots
// and the CI benchmark numbers measure the same work.
func rawSpecs() []sim.RunSpec {
	scale := benchScale()
	return []sim.RunSpec{
		sim.DKIPSpec("swim", core.Config{}, scale.Warmup, scale.Measure),
		sim.OOOSpec("mcf", ooo.R10K64(), scale.Warmup, scale.Measure),
	}
}

// benchRaw measures uncached simulator throughput over the given specs (the
// memo cache is disabled, so every iteration re-simulates). It reports
// instrs/s — the repo's headline perf number — and allocation counts: the
// steady-state cycle loop is allocation-free, so allocs/op must stay flat as
// the per-iteration instruction count grows (what remains is per-simulation
// construction: caches, predictor tables, the window arena).
func benchRaw(b *testing.B, specs ...sim.RunSpec) {
	b.Helper()
	r := sim.NewRunner(sim.NoMemo())
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			res, err := r.Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			instrs += res.Stats.Committed
		}
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSimulatorRaw measures uncached simulator throughput: every
// iteration re-simulates the default D-KIP and the R10-64 baseline on one
// SpecFP and one SpecINT workload. This is the number the CI perf job gates
// against BENCH_baseline.json.
func BenchmarkSimulatorRaw(b *testing.B) {
	benchRaw(b, rawSpecs()...)
}

// BenchmarkSimulatorRawDKIP isolates D-KIP (core package) throughput.
func BenchmarkSimulatorRawDKIP(b *testing.B) {
	benchRaw(b, rawSpecs()[0])
}

// BenchmarkSimulatorRawOOO isolates out-of-order-baseline (ooo package)
// throughput.
func BenchmarkSimulatorRawOOO(b *testing.B) {
	benchRaw(b, rawSpecs()[1])
}

// BenchmarkSimulatorRawInorder measures the C920-class in-order core
// (inorder package) on swim, the spec cmd/bench adds to the raw set. It is
// not part of BenchmarkSimulatorRaw's aggregate.
func BenchmarkSimulatorRawInorder(b *testing.B) {
	scale := benchScale()
	benchRaw(b, sim.MustPresetSpec("inorder", "swim", scale.Warmup, scale.Measure))
}

// BenchmarkRunnerCacheHit measures the memoized fast path: after the first
// iteration every Run is served as a deep-copied cache hit.
func BenchmarkRunnerCacheHit(b *testing.B) {
	r := sim.NewRunner()
	scale := benchScale()
	spec := sim.DKIPSpec("swim", core.Config{}, scale.Warmup, scale.Measure)
	if _, err := r.Run(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("expected a cache hit")
		}
	}
	if m := r.Metrics(); m.Simulated != 1 {
		b.Fatalf("simulated %d times, want 1", m.Simulated)
	}
}

// sampledSweep returns the sampled sweep BenchmarkSampledSweep runs, in two
// batches: the Figure 9 machines and the C920 on crafty, mcf and swim at
// 10k+1M under the default sampling plan, first the first machine of each
// checkpoint family (D-KIP, R10-64 for the out-of-order machines, the C920,
// whose memory configuration gives it checkpoints of its own), then the
// out-of-order machines that reuse R10-64's checkpoints. It is the spec set
// of the repository benchmark's sampled-ckpt workload.
func sampledSweep() [2][]sim.RunSpec {
	const warmup, measure = 10_000, 1_000_000
	var batches [2][]sim.RunSpec
	for _, b := range []string{"crafty", "mcf", "swim"} {
		batches[0] = append(batches[0],
			sim.DKIPSpec(b, core.Config{}, warmup, measure),
			sim.OOOSpec(b, ooo.R10K64(), warmup, measure),
			sim.InorderSpec(b, inorder.C920(), warmup, measure))
		batches[1] = append(batches[1],
			sim.OOOSpec(b, ooo.R10K256(), warmup, measure),
			sim.OOOSpec(b, kilo.Config1024(), warmup, measure))
	}
	for _, batch := range batches {
		for i := range batch {
			batch[i].Sample = sample.DefaultPlan()
		}
	}
	return batches
}

// BenchmarkSampledSweep runs the sampled sweep (sampledSweep) once per
// iteration, over a fresh checkpoint store and through a one-worker Runner.
// The Runner lends each sampled run's detailed intervals a CPU when
// GOMAXPROCS leaves one spare, so that an interval runs beside the
// functional walk to the next interval start, and the reusing batch's
// intervals, all checkpoint hits, run beside one another;
//
//	go test -run xxx -bench SampledSweep -cpu 1,2 .
//
// compares the overlapped schedule with the inline one. first-s/op and
// reusing-s/op split the wall time per sweep between the two batches, and
// cpu-s/op is the process's CPU time (user plus system) per sweep, where
// the platform reports it.
func BenchmarkSampledSweep(b *testing.B) {
	batches := sampledSweep()
	var wall [2]time.Duration
	var cpu time.Duration
	measured := true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := sim.OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		r := sim.NewRunner(sim.WithStore(store), sim.Parallel(1))
		c0, ok0 := processCPU()
		b.StartTimer()
		for j, batch := range batches {
			start := time.Now()
			if _, err := r.RunAll(batch); err != nil {
				b.Fatal(err)
			}
			wall[j] += time.Since(start)
		}
		c1, ok1 := processCPU()
		cpu += c1 - c0
		measured = measured && ok0 && ok1
	}
	b.ReportMetric(wall[0].Seconds()/float64(b.N), "first-s/op")
	b.ReportMetric(wall[1].Seconds()/float64(b.N), "reusing-s/op")
	if measured {
		b.ReportMetric(cpu.Seconds()/float64(b.N), "cpu-s/op")
	}
}
