package sim

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dkip/internal/core"
	"dkip/internal/inorder"
	"dkip/internal/isa"
	"dkip/internal/kilo"
	"dkip/internal/ooo"
	"dkip/internal/sample"
	"dkip/internal/trace"
	"dkip/internal/workload"
)

// sampleBenches is the accuracy slice of the 26-benchmark suite: five
// integer and five floating-point profiles, deliberately including the
// noisiest ones — mcf's pointer chasing, vpr's data-dependent branches,
// ammp's chase chains, art and swim's memory streams — alongside quieter
// cache-resident codes (bzip2, crafty). Sampling error on the full suite is
// bracketed by these.
var sampleBenches = []string{
	"bzip2", "crafty", "gcc", "mcf", "vpr",
	"ammp", "art", "galgel", "swim", "wupwise",
}

// Sampling pays off on long runs: at this scale the defaulted plan keeps a
// 10× detailed-instruction reduction while detailed per-interval warmup
// still covers four fills of the largest instruction window. This is the
// scale the documented 3% error bound is stated at — at toy scales
// (goldens, quick sweeps) sampling still works but the reduction and the
// bound degrade together.
const (
	sampleScaleWarmup  = 10_000
	sampleScaleMeasure = 1_000_000
)

// sampleGrid is the arch×bench grid the accuracy bound is documented
// against: the Figure 9 machines at the sampling scale.
func sampleGrid() []RunSpec {
	configs := []RunSpec{
		OOOSpec("", ooo.R10K64(), sampleScaleWarmup, sampleScaleMeasure),
		OOOSpec("", ooo.R10K256(), sampleScaleWarmup, sampleScaleMeasure),
		OOOSpec("", kilo.Config1024(), sampleScaleWarmup, sampleScaleMeasure),
		DKIPSpec("", core.Config{}, sampleScaleWarmup, sampleScaleMeasure),
	}
	var specs []RunSpec
	for _, bench := range sampleBenches {
		for _, s := range configs {
			s.Bench = bench
			specs = append(specs, s)
		}
	}
	return specs
}

// TestSampledAccuracy is the acceptance gate for the sampling methodology:
// across the Figure 9 arch×bench grid at the sampling scale, the default
// plan's CPI must stay within 3% mean absolute error (and 10% worst case)
// of the full run while simulating at least 10× fewer instructions in
// detail. Everything here is deterministic — the bound is a regression
// fence, not a flaky statistic. The shared store makes the cross-machine
// checkpoint reuse that a real sweep gets part of the measurement: each
// engine family pays the functional fast-forward once per benchmark.
func TestSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full arch×bench grid at sampling scale")
	}
	if raceEnabled {
		t.Skip("simulates ~50M instructions; race overhead makes it minutes")
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var absErrSum, worst float64
	var n int
	for _, spec := range sampleGrid() {
		spec := spec
		full, err := NewRunner().Run(spec)
		if err != nil {
			t.Fatalf("full run %s: %v", spec.Label(), err)
		}
		spec.Sample = sample.DefaultPlan()
		st, sum, _, err := SimulateSampled(spec, store)
		if err != nil {
			t.Fatalf("sampled run %s: %v", spec.Label(), err)
		}
		fullCPI := float64(full.Stats.Cycles) / float64(full.Stats.Committed)
		sampCPI := float64(st.Cycles) / float64(st.Committed)
		relErr := math.Abs(sampCPI-fullCPI) / fullCPI
		absErrSum += relErr
		if relErr > worst {
			worst = relErr
		}
		n++
		if r := sum.Reduction(); r < 10 {
			t.Errorf("%s: detailed-instruction reduction %.1f× < 10×", spec.Label(), r)
		}
		t.Logf("%-22s full=%.3f sampled=%.3f ±%.3f err=%.2f%% reduction=%.1fx",
			spec.Label(), fullCPI, sampCPI, sum.CPICI95, 100*relErr, sum.Reduction())
	}
	mae := absErrSum / float64(n)
	t.Logf("grid MAE %.2f%%, worst %.2f%% over %d points", 100*mae, 100*worst, n)
	if mae > 0.03 {
		t.Errorf("sampled CPI mean absolute error %.2f%% exceeds the documented 3%% bound", 100*mae)
	}
	if worst > 0.10 {
		t.Errorf("sampled CPI worst-case error %.2f%% exceeds 10%%", 100*worst)
	}
}

// TestSampledResumeDeterminism proves the checkpoint round trip is exact:
// a sampled run that reloads every checkpoint from the store produces
// byte-identical stats to one that computes them from cold — the in-Go
// counterpart of the CI artifact diff.
func TestSampledResumeDeterminism(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []RunSpec{
		DKIPSpec("mcf", core.Config{}, 2_000, 8_000),
		OOOSpec("swim", ooo.R10K256(), 2_000, 8_000),
	} {
		spec.Sample = sample.DefaultPlan()
		cold, coldSum, coldIO, err := SimulateSampled(spec, store)
		if err != nil {
			t.Fatalf("cold %s: %v", spec.Label(), err)
		}
		if coldIO.Hits != 0 || coldIO.Writes == 0 {
			t.Fatalf("cold %s: io = %+v, want no hits and some writes", spec.Label(), coldIO)
		}
		resumed, resumedSum, resumedIO, err := SimulateSampled(spec, store)
		if err != nil {
			t.Fatalf("resumed %s: %v", spec.Label(), err)
		}
		if resumedIO.Hits == 0 || resumedIO.Misses != 0 {
			t.Fatalf("resumed %s: io = %+v, want all hits", spec.Label(), resumedIO)
		}
		if !reflect.DeepEqual(cold, resumed) {
			t.Errorf("%s: resumed stats differ from cold\ncold:    %+v\nresumed: %+v", spec.Label(), cold, resumed)
		}
		if !reflect.DeepEqual(coldSum, resumedSum) {
			t.Errorf("%s: resumed summary differs from cold", spec.Label())
		}
		// No store at all must also match: checkpoint reuse is a pure
		// optimization.
		bare, _, _, err := SimulateSampled(spec, nil)
		if err != nil {
			t.Fatalf("storeless %s: %v", spec.Label(), err)
		}
		if !reflect.DeepEqual(cold, bare) {
			t.Errorf("%s: storeless stats differ from cold-with-store", spec.Label())
		}
	}
}

// TestSampledPartialResume kills the middle out of a checkpoint set: the run
// must rebuild missing checkpoints by fast-forwarding from the last stored
// one and still produce identical results.
func TestSampledPartialResume(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := DKIPSpec("mcf", core.Config{}, 2_000, 8_000)
	spec.Sample = sample.DefaultPlan()
	cold, _, _, err := SimulateSampled(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	// Remove every other checkpoint blob.
	var blobs []string
	filepath.Walk(filepath.Join(dir, "checkpoints"), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			blobs = append(blobs, p)
		}
		return nil
	})
	if len(blobs) < 2 {
		t.Fatalf("expected several checkpoint blobs, found %d", len(blobs))
	}
	for i, p := range blobs {
		if i%2 == 1 {
			os.Remove(p)
		}
	}
	resumed, _, io, err := SimulateSampled(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	if io.Hits == 0 || io.Misses == 0 {
		t.Fatalf("partial resume io = %+v, want a mix of hits and misses", io)
	}
	if !reflect.DeepEqual(cold, resumed) {
		t.Errorf("partial resume stats differ from cold")
	}
}

// TestSampleKeyStability pins the hash contract: a disabled plan leaves the
// key exactly as before sampling existed, an enabled plan changes it, and
// defaulted vs. explicit spellings of the same plan collide.
func TestSampleKeyStability(t *testing.T) {
	base := DKIPSpec("mcf", core.Config{}, 2_000, 8_000)
	plain := base.Key()
	sampled := base
	sampled.Sample = sample.DefaultPlan()
	if sampled.Key() == plain {
		t.Error("enabling sampling must change the content key")
	}
	explicit := base
	explicit.Sample = sampled.SamplePlan()
	if explicit.Key() != sampled.Key() {
		t.Error("defaulted and explicit spellings of one plan must share a key")
	}
	other := base
	other.Sample = sample.Plan{Intervals: 8}
	if other.Key() == sampled.Key() {
		t.Error("different plans must hash differently")
	}
}

// TestSampledThroughRunner exercises the memo/store integration: sampled
// results memoize, persist, round-trip with their summaries, and reuse
// checkpoints across sweep points that share a memory configuration.
func TestSampledThroughRunner(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(WithStore(store))
	mk := func(cfg ooo.Config) RunSpec {
		s := OOOSpec("mcf", cfg, 2_000, 8_000)
		s.Sample = sample.DefaultPlan()
		return s
	}
	res, err := r.Run(mk(ooo.R10K64()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == nil || res.Sampled.Intervals < 2 {
		t.Fatalf("sampled result carries no summary: %+v", res.Sampled)
	}
	m := r.Metrics()
	if m.CheckpointWrites == 0 {
		t.Fatalf("metrics = %+v, want checkpoint writes", m)
	}
	// A different window size shares the checkpoint set: same memory,
	// predictor, bench, positions.
	if _, err := r.Run(mk(ooo.R10K256())); err != nil {
		t.Fatal(err)
	}
	m = r.Metrics()
	if m.CheckpointHits == 0 {
		t.Fatalf("metrics = %+v, want checkpoint hits for the shared sweep point", m)
	}
	// The persisted result round-trips with its summary.
	got, ok := store.Get(mk(ooo.R10K64()).Key())
	if !ok {
		t.Fatal("sampled result not persisted")
	}
	if got.Sampled == nil || *got.Sampled != *res.Sampled {
		t.Errorf("stored summary %+v != fresh %+v", got.Sampled, res.Sampled)
	}
}

// TestSampledStreamResumeAcrossMachines runs R10-64 and then R10-256 and
// KILO-1024 over one store at a scale whose stride is far above an
// interval's read-ahead: the later machines hit every checkpoint R10-64
// wrote, resume the stream from the generator state those carry, and
// still produce exactly what a storeless run does.
func TestSampledStreamResumeAcrossMachines(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range []ooo.Config{ooo.R10K64(), ooo.R10K256(), kilo.Config1024()} {
		spec := OOOSpec("mcf", cfg, 10_000, 200_000)
		spec.Sample = sample.DefaultPlan()
		got, gotSum, io, err := SimulateSampled(spec, store)
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		want, wantSum, _, err := SimulateSampled(spec, nil)
		if err != nil {
			t.Fatalf("storeless %s: %v", spec.Label(), err)
		}
		if wantIO := (sample.IO{Hits: 4}); i > 0 && io != wantIO {
			t.Errorf("%s: io = %+v, want %+v", spec.Label(), io, wantIO)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stats over the store differ from storeless\ngot:  %+v\nwant: %+v", spec.Label(), got, want)
		}
		if !reflect.DeepEqual(gotSum, wantSum) {
			t.Errorf("%s: summary over the store %+v, storeless %+v", spec.Label(), gotSum, wantSum)
		}
	}
}

// countedGen counts the Next calls on a workload generator; its state
// methods stay visible to sample.Run.
type countedGen struct {
	*workload.Benchmark
	calls *uint64
}

func (g *countedGen) Next() isa.Instr {
	*g.calls++
	return g.Benchmark.Next()
}

// TestSampledPassGeneratorCalls counts the instructions a sampled sweep
// generates: the Figure 9 machines and the in-order core on crafty, mcf and
// swim at the sampling scale, over one store, the first machine of each
// checkpoint family first. The out-of-order machines after R10-64 hit every
// checkpoint and resume the stream from its generator state, so each
// generates about its detailed intervals' read-ahead, not the stream up to
// its last interval.
func TestSampledPassGeneratorCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling-scale sweep")
	}
	if raceEnabled {
		t.Skip("simulates ~10M instructions; race overhead makes it minutes")
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var first, reusing []RunSpec
	for _, b := range []string{"crafty", "mcf", "swim"} {
		first = append(first,
			DKIPSpec(b, core.Config{}, sampleScaleWarmup, sampleScaleMeasure),
			OOOSpec(b, ooo.R10K64(), sampleScaleWarmup, sampleScaleMeasure),
			InorderSpec(b, inorder.C920(), sampleScaleWarmup, sampleScaleMeasure))
		reusing = append(reusing,
			OOOSpec(b, ooo.R10K256(), sampleScaleWarmup, sampleScaleMeasure),
			OOOSpec(b, kilo.Config1024(), sampleScaleWarmup, sampleScaleMeasure))
	}
	specs := append(first, reusing...)
	var total, reused uint64
	var io sample.IO
	for i, spec := range specs {
		spec.Sample = sample.DefaultPlan()
		cfg, err := sampledConfig(spec, store)
		if err != nil {
			t.Fatal(err)
		}
		var calls uint64
		newGen := cfg.NewGen
		cfg.NewGen = func() trace.Generator {
			return &countedGen{Benchmark: newGen().(*workload.Benchmark), calls: &calls}
		}
		_, _, runIO, err := sample.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		io.Hits += runIO.Hits
		io.Misses += runIO.Misses
		io.Writes += runIO.Writes
		total += calls
		if i >= len(first) {
			reused += calls
			if stream := spec.Warmup + spec.Measure; calls*5 > stream {
				t.Errorf("%s: reusing every checkpoint, generated %d of its %d-instruction stream", spec.Label(), calls, stream)
			}
		}
	}
	t.Logf("%d specs generated %d instructions, %d of them in the %d reusing runs; checkpoint hits/misses/writes %d/%d/%d",
		len(specs), total, reused, len(reusing), io.Hits, io.Misses, io.Writes)
	if want := (sample.IO{Hits: 24, Misses: 36, Writes: 36}); io != want {
		t.Errorf("checkpoint traffic %+v, want %+v", io, want)
	}
}

// TestRunnerLendsSpareCPU pins the lending rule: a simulation may borrow a
// CPU for a sampled interval only while the Runner's running simulations
// plus the CPUs already lent are fewer than GOMAXPROCS. A one-worker Runner
// lends one CPU at GOMAXPROCS 2 and none at 1, and a Runner whose workers
// are all busy lends none.
func TestRunnerLendsSpareCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name           string
		procs, workers int
		want           int
	}{
		{"Parallel(1) at GOMAXPROCS 2", 2, 1, 1},
		{"Parallel(1) at GOMAXPROCS 1", 1, 1, 0},
		{"Parallel(2) busy at GOMAXPROCS 2", 2, 2, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			runtime.GOMAXPROCS(c.procs)
			var r *Runner
			// Every worker holds its slot before any asks to borrow, and
			// keeps it until all have asked.
			var busy, asked sync.WaitGroup
			busy.Add(c.workers)
			asked.Add(c.workers)
			var mu sync.Mutex
			var granted []int
			r = NewRunner(Parallel(c.workers), OnSimulate(func(RunSpec) {
				busy.Done()
				busy.Wait()
				var giveBack []func()
				for len(giveBack) <= c.procs {
					g := r.lendCPU()
					if g == nil {
						break
					}
					giveBack = append(giveBack, g)
				}
				mu.Lock()
				granted = append(granted, len(giveBack))
				mu.Unlock()
				asked.Done()
				asked.Wait()
				for _, g := range giveBack {
					g()
				}
			}))
			var specs []RunSpec
			for _, b := range []string{"gcc", "swim"}[:c.workers] {
				specs = append(specs, MustPresetSpec("r10-64", b, 100, 1_000))
			}
			if _, err := r.RunAll(specs); err != nil {
				t.Fatal(err)
			}
			if len(granted) != c.workers {
				t.Fatalf("%d simulations asked to borrow, want %d", len(granted), c.workers)
			}
			for _, n := range granted {
				if n != c.want {
					t.Errorf("a running simulation borrowed %d CPUs, want %d", n, c.want)
				}
			}
			if r.lent != 0 {
				t.Errorf("%d CPUs still lent after the runs", r.lent)
			}
		})
	}
}

// TestLendingRunnerMatchesSimulateSampled runs sampled specs through a
// one-worker Runner at GOMAXPROCS 2, which lends a CPU to every interval so
// each runs beside the walk, and through SimulateSampled, which runs them
// inline, each over a store prepared the same way: empty, holding every
// checkpoint, every other one, or each filed under the wrong position. The
// statistics, summaries and checkpoint traffic agree, and so do the
// checkpoints the two leave in their stores. The 2k/8k plan's intervals
// tile their stride, so detailed reads cross the next interval start there.
func TestLendingRunnerMatchesSimulateSampled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, sc := range []struct{ warmup, measure uint64 }{{10_000, 200_000}, {2_000, 8_000}} {
		spec := DKIPSpec("mcf", core.Config{}, sc.warmup, sc.measure)
		spec.Sample = sample.DefaultPlan()
		plan := spec.SamplePlan()
		stride := sc.measure / uint64(plan.Intervals)
		var starts []uint64
		for i := 0; i < plan.Intervals; i++ {
			starts = append(starts, sc.warmup+uint64(i)*stride)
		}
		full, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := SimulateSampled(spec, full); err != nil {
			t.Fatal(err)
		}
		blob := func(pos uint64) []byte {
			data, ok := full.GetBlob(ckptKind, spec.checkpointKey(pos))
			if !ok {
				t.Fatalf("no checkpoint at %d", pos)
			}
			return data
		}
		for _, state := range []struct {
			name string
			fill func(s *Store)
		}{
			{"empty", func(*Store) {}},
			{"full", func(s *Store) {
				for _, pos := range starts {
					s.PutBlob(ckptKind, spec.checkpointKey(pos), blob(pos))
				}
			}},
			{"every-other", func(s *Store) {
				for i, pos := range starts {
					if i%2 == 0 {
						s.PutBlob(ckptKind, spec.checkpointKey(pos), blob(pos))
					}
				}
			}},
			{"misfiled", func(s *Store) {
				for _, pos := range starts[:len(starts)-1] {
					s.PutBlob(ckptKind, spec.checkpointKey(pos), blob(pos+stride))
				}
			}},
		} {
			name := fmt.Sprintf("%d+%d %s", sc.warmup, sc.measure, state.name)
			stores := [2]*Store{}
			for i := range stores {
				if stores[i], err = OpenStore(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				state.fill(stores[i])
			}
			want, wantSum, wantIO, err := SimulateSampled(spec, stores[0])
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(WithStore(stores[1]), Parallel(1))
			res, err := r.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if r.lends != uint64(plan.Intervals) {
				t.Errorf("%s: the Runner lent %d CPUs, want one per interval (%d)", name, r.lends, plan.Intervals)
			}
			if !reflect.DeepEqual(res.Stats, want) {
				t.Errorf("%s: stats differ\nrunner:          %+v\nSimulateSampled: %+v", name, res.Stats, want)
			}
			if !reflect.DeepEqual(res.Sampled, wantSum) {
				t.Errorf("%s: summary %+v, SimulateSampled %+v", name, res.Sampled, wantSum)
			}
			m := r.Metrics()
			if got := (sample.IO{Hits: m.CheckpointHits, Misses: m.CheckpointMisses, Writes: m.CheckpointWrites}); got != wantIO {
				t.Errorf("%s: checkpoint traffic %+v, SimulateSampled %+v", name, got, wantIO)
			}
			var blobs [2]map[string]string
			for i, s := range stores {
				blobs[i] = map[string]string{}
				if err := s.WalkBlobs(ckptKind, func(key string, data []byte) error {
					blobs[i][key] = string(data)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(blobs[0], blobs[1]) {
				t.Errorf("%s: the Runner's store holds %d checkpoints, SimulateSampled's %d, and they differ", name, len(blobs[1]), len(blobs[0]))
			}
		}
	}
}
