package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dkip/internal/pipeline"
	"dkip/internal/sample"
	"dkip/internal/sim"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{160, 90}, {130, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50},
		{20, 50}, {19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && float64(c.n)*(100-p)/100 < 10 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

// TestTailReportedWithCount checks that the tail metric sits at the rule's
// percentile for minPasses passes, over the pooled operations of every
// pass, and that its note states the percentile and the sample counts.
func TestTailReportedWithCount(t *testing.T) {
	var passes []passResult
	for k := 0; k < minPasses+1; k++ {
		p := passResult{wall: time.Second}
		for i := 1; i <= 100; i++ {
			p.ops = append(p.ops, opRecord{arch: sim.ArchDKIP, rtt: time.Duration(i) * time.Millisecond, committed: 1000})
		}
		passes = append(passes, p)
	}
	want := tailPercentile(minPasses * 100)
	v := endToEndValues(passes, 0.5, 3)
	tail := v["rtt_tail_ms"]
	if tail.v != want {
		t.Errorf("rtt_tail_ms = %g, want the p%g of 1..100 ms = %g", tail.v, want, want)
	}
	n := (minPasses + 1) * 100
	beyond := n - int(want)*(minPasses+1)
	for _, s := range []string{fmt.Sprintf("p%g ", want), fmt.Sprintf("(%d beyond)", beyond), fmt.Sprintf("n=%d", n)} {
		if !strings.Contains(tail.note, s) {
			t.Errorf("rtt_tail_ms note %q lacks %q", tail.note, s)
		}
	}
	if got := v["rtt_p50_ms"].v; got != 50 {
		t.Errorf("rtt_p50_ms = %g, want 50", got)
	}
	if got := v["req_per_s"].v; got != 100 {
		t.Errorf("req_per_s = %g, want 100", got)
	}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "a.inner", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 30}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
}

func TestCheckGoldenRejectsPerturbation(t *testing.T) {
	st := &pipeline.Stats{Cycles: 1000, Committed: 400, Branches: 50, Mispredicts: 3}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	c, err := canonical(raw)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]goldenRecord{"k1": {Key: "k1", Arch: "dkip", Bench: "swim", Warmup: 10, Measure: 400, Stats: c}}
	rec := func() *sim.Result {
		s := *st
		return &sim.Result{Key: "k1", Arch: "dkip", Config: "OOO-40/MP-INO", Bench: "swim", Warmup: 10, Measure: 400, Stats: &s}
	}
	if err := checkGolden(golden, "k1", rec()); err != nil {
		t.Fatalf("matching record rejected: %v", err)
	}
	bad := rec()
	bad.Stats.Mispredicts++
	if checkGolden(golden, "k1", bad) == nil {
		t.Error("record with one perturbed stats field accepted")
	}
	bad = rec()
	bad.Key = "k2"
	if checkGolden(golden, "k1", bad) == nil {
		t.Error("record under a different key accepted")
	}
	if checkGolden(golden, "k2", rec()) == nil {
		t.Error("spec key missing from the golden accepted")
	}
}

func TestCheckPinnedRejectsPerturbation(t *testing.T) {
	st := &pipeline.Stats{Cycles: 1000, Committed: 400}
	sum := &sample.Summary{Intervals: 4, CPI: 2.5}
	pins := map[string]string{"k1": digest(st, sum)}
	rec := func() *sim.Result {
		s, m := *st, *sum
		return &sim.Result{Key: "k1", Stats: &s, Sampled: &m}
	}
	if err := checkPinned(pins, "k1", rec()); err != nil {
		t.Fatalf("matching record rejected: %v", err)
	}
	bad := rec()
	bad.Stats.Cycles++
	if checkPinned(pins, "k1", bad) == nil {
		t.Error("record with one perturbed stats field accepted")
	}
	bad = rec()
	bad.Sampled.CPI = 2.6
	if checkPinned(pins, "k1", bad) == nil {
		t.Error("record with a perturbed sampling summary accepted")
	}
	bad = rec()
	bad.Key = "k2"
	if checkPinned(pins, "k1", bad) == nil {
		t.Error("record under a different key accepted")
	}
}

// TestCheckpointFamilies pins the sharing the traced sampled run relies on:
// the out-of-order machines of Figure 9 share checkpoints, the D-KIP and the
// in-order core each have their own.
func TestCheckpointFamilies(t *testing.T) {
	b := sampledBatches()
	fam := map[string]string{}
	for _, bt := range b {
		for _, s := range bt.specs {
			if s.Bench == "swim" {
				fam[s.ConfigName()] = ckptFamily(s)
			}
		}
	}
	if fam["R10-64"] != fam["R10-256"] || fam["R10-64"] != fam["KILO-1024"] {
		t.Errorf("out-of-order machines do not share a checkpoint family: %v", fam)
	}
	if fam["R10-64"] == fam["DKIP-2048"] || fam["R10-64"] == fam["C920"] || fam["DKIP-2048"] == fam["C920"] {
		t.Errorf("distinct families collide: %v", fam)
	}
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric BENCHMARK.json declares against the
// allowed character sets, that no name repeats, and that every declared
// workload is one the benchmark runs.
func TestMetricNames(t *testing.T) {
	ms, err := loadMetrics("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.endToEnd) == 0 || len(ms.perLayer) == 0 {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics", len(ms.endToEnd), len(ms.perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), ms.endToEnd...), ms.perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.name)
		}
		if !unitName.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q not allowed", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the benchmark", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bench.Workloads), len(workloads))
	}
}

// TestReportRejectsUndeclaredMetric checks that a metric the benchmark
// computes under a name BENCHMARK.json does not declare fails the run
// instead of vanishing from the result line.
func TestReportRejectsUndeclaredMetric(t *testing.T) {
	defs := []metricDef{{"wall_s", "s"}}
	if err := report(defs, map[string]value{"wall_s": {v: 1}}, outcome{attempted: 1}); err != nil {
		t.Fatalf("declared metric rejected: %v", err)
	}
	if report(defs, map[string]value{"wal_s": {v: 1}}, outcome{attempted: 1}) == nil {
		t.Error("undeclared metric accepted")
	}
}

// TestSameCountsRejectsDifference checks the comparison that fails a traced
// run whose pass did other work than the untraced pass before it.
func TestSameCountsRejectsDifference(t *testing.T) {
	m := sim.Metrics{Requested: 15, Simulated: 15, DiskWrites: 15, CheckpointHits: 24, CheckpointMisses: 36, CheckpointWrites: 36}
	if err := sameCounts(m, m); err != nil {
		t.Fatalf("equal counts rejected: %v", err)
	}
	for name, perturb := range map[string]func(*sim.Metrics){
		"simulated":         func(x *sim.Metrics) { x.Simulated-- },
		"disk hits":         func(x *sim.Metrics) { x.DiskHits++ },
		"checkpoint hits":   func(x *sim.Metrics) { x.CheckpointHits++ },
		"checkpoint misses": func(x *sim.Metrics) { x.CheckpointMisses-- },
	} {
		x := m
		perturb(&x)
		if sameCounts(m, x) == nil {
			t.Errorf("differing %s accepted", name)
		}
	}
}

// TestCoreCountsDKIPOnly checks that the core.* counters fold in D-KIP
// records only: the out-of-order model counts SLIQ recoveries in the same
// stats field.
func TestCoreCountsDKIPOnly(t *testing.T) {
	tr := newTracer()
	st := &pipeline.Stats{Committed: 100, Cycles: 200, Recoveries: 7, CPCommitted: 60, LLIBFullStalls: 3}
	for _, spec := range []sim.RunSpec{
		sim.MustPresetSpec("kilo", "swim", 10, 100),
		sim.MustPresetSpec("dkip", "swim", 10, 100),
	} {
		o := tr.beginOp("run", spec)
		o.noteStats(st)
		o.finish()
	}
	if tr.obs.recoveries != 7 || tr.obs.cpCommitted != 60 || tr.obs.llibFull != 3 {
		t.Errorf("core counts %d recoveries, %d CP commits, %d LLIB stalls; want the D-KIP record's 7, 60, 3",
			tr.obs.recoveries, tr.obs.cpCommitted, tr.obs.llibFull)
	}
}
