package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dkip/internal/inorder"
	"dkip/internal/sim"
	"dkip/internal/workload"
)

// diffRun is the normalized per-run record of the differential golden: one
// sim.Result with the wall-clock and provenance fields (elapsed_ns, cached)
// dropped, keyed by the spec's content key. The stats are stored as raw
// JSON and compared by canonical re-encoding.
type diffRun struct {
	Key     string          `json:"key"`
	Arch    string          `json:"arch"`
	Config  string          `json:"config"`
	Bench   string          `json:"bench"`
	Warmup  uint64          `json:"warmup"`
	Measure uint64          `json:"measure"`
	Stats   json.RawMessage `json:"stats"`
}

// diffGolden is one golden file of the differential matrix and the batches
// of jobs whose records it pins, in run order.
type diffGolden struct {
	file    string
	batches [][]job
}

// differentialGoldens is the cross-engine spec matrix the differential
// goldens pin, at QuickScale so the records match the quick-artifact scale
// the first golden was extracted from:
//
//   - differential.golden.json: the Figure 9 grid (both out-of-order
//     presets, the KILO machine, and the default D-KIP over every
//     benchmark), then the Figure 10 scheduler variants on two FP
//     workloads — every pre-engine-refactor code path of the two original
//     models;
//   - differential-inorder.golden.json: the in-order C920 preset over every
//     benchmark, recorded from the dedicated in-order model before that
//     model was folded into the out-of-order one.
//
// The first golden's batches must run in this order. Figure 10's
// OOO-40/MP-INO point is the default D-KIP, so on swim and applu it shares
// a content key with a Figure 9 spec, and the record carries the config
// name of whichever spec registered the key first. The golden, from an
// artifact where Figure 9 ran first, names it DKIP-2048.
func differentialGoldens() []diffGolden {
	s := QuickScale()
	var fig9, fig10, ino []job
	for _, a := range fig9Configs() {
		for _, b := range workload.Names() {
			fig9 = append(fig9, a.mk(b, s))
		}
	}
	for _, cp := range cpPoints {
		for _, mp := range mpPoints {
			cfg := dkipSched(cp, mp)
			for _, b := range []string{"swim", "applu"} {
				fig10 = append(fig10, runDKIP(cfg.Name+"/"+b, b, cfg, s))
			}
		}
	}
	for _, b := range workload.Names() {
		ino = append(ino, runInorder("c920/"+b, b, inorder.C920(), s))
	}
	return []diffGolden{
		{"differential.golden.json", [][]job{fig9, fig10}},
		{"differential-inorder.golden.json", [][]job{ino}},
	}
}

// TestDifferentialGolden is the cross-engine refactor gate: simulating the
// differential matrix must reproduce, byte for byte (modulo wall clock), the
// records the goldens hold for the same specs — including the content keys,
// so a hash drift and a behavior drift are both caught. The first golden was
// extracted from a full pre-refactor `cmd/experiments -run all -quick -json`
// artifact; regenerate with -update only when a behavior change is
// intended, and say so in the commit.
func TestDifferentialGolden(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("differential matrix is simulation-heavy; covered by the non-race run")
	}
	if testing.Short() {
		t.Skip("differential matrix simulates 160 quick-scale runs")
	}

	runner := sim.NewRunner()
	for _, g := range differentialGoldens() {
		var jobs []job
		var got []diffRun
		for _, batch := range g.batches {
			specs := make([]sim.RunSpec, len(batch))
			for i, j := range batch {
				specs[i] = j.spec
			}
			res, err := runner.RunAll(specs)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, batch...)
			for _, r := range res {
				stats, err := json.Marshal(r.Stats)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, diffRun{
					Key: r.Key, Arch: r.Arch, Config: r.Config, Bench: r.Bench,
					Warmup: r.Warmup, Measure: r.Measure, Stats: stats,
				})
			}
		}
		checkDifferential(t, filepath.Join("testdata", g.file), jobs, got)
	}
}

// checkDifferential compares one golden file's records with got, the
// records its jobs produced; with -update it rewrites the file instead.
func checkDifferential(t *testing.T, path string, jobs []job, got []diffRun) {
	t.Helper()
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing differential golden (run with -update to create): %v", err)
	}
	var want []diffRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]diffRun, len(want))
	for _, w := range want {
		byKey[w.Key] = w
	}

	for i, g := range got {
		w, ok := byKey[g.Key]
		if !ok {
			t.Errorf("%s (%s/%s): content key %s not in %s — the spec hash drifted",
				jobs[i].key, g.Config, g.Bench, g.Key, path)
			continue
		}
		if g.Arch != w.Arch || g.Config != w.Config || g.Bench != w.Bench ||
			g.Warmup != w.Warmup || g.Measure != w.Measure {
			t.Errorf("%s: record header drifted: got %s/%s/%s %d/%d, want %s/%s/%s %d/%d",
				g.Key, g.Arch, g.Config, g.Bench, g.Warmup, g.Measure,
				w.Arch, w.Config, w.Bench, w.Warmup, w.Measure)
		}
		if gs, ws := canonJSON(t, g.Stats), canonJSON(t, w.Stats); gs != ws {
			t.Errorf("%s (%s/%s): stats drifted from %s:\ngot:  %s\nwant: %s",
				g.Key, g.Config, g.Bench, path, gs, ws)
		}
	}
}

// canonJSON re-encodes raw JSON with sorted keys so formatting differences
// between the golden file and a fresh Marshal never count as drift.
func canonJSON(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var v interface{}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
