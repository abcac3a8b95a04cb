package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dkip/internal/sim"
)

// Measurement order is sorted by arch name, never map iteration order —
// the determinism finding dkipvet pinned on the bench harness.
func TestMeasureOrderSorted(t *testing.T) {
	specs := map[string]sim.RunSpec{
		"ooo":  sim.MustPresetSpec("r10-64", "mcf", 10, 10),
		"dkip": sim.MustPresetSpec("dkip", "swim", 10, 10),
		"zeta": sim.MustPresetSpec("inorder", "swim", 10, 10),
	}
	for i := 0; i < 16; i++ {
		got := measureOrder(specs)
		if !sort.StringsAreSorted(got) || len(got) != len(specs) {
			t.Fatalf("measureOrder = %v, want all %d names sorted", got, len(specs))
		}
	}
}

// A snapshot file written before gomaxprocs and num_cpu were recorded still
// merges: its entries keep their exact fields, and the new entry carries
// both.
func TestSnapshotMergesEntriesWithoutCPUFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	old := `{"old": {"go_version": "go1.22.0", "goarch": "amd64", "warmup": 5000, "measure": 20000, "archs": {}, "total_instrs_per_sec": 1000}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(path, "new", snapshot{GOMAXPROCS: 2, NumCPU: 4, Archs: map[string]archResult{}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries map[string]map[string]json.RawMessage
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"gomaxprocs", "num_cpu"} {
		if _, ok := entries["old"][field]; ok {
			t.Errorf("old entry gained %q: %s", field, data)
		}
	}
	if got := string(entries["new"]["gomaxprocs"]) + "/" + string(entries["new"]["num_cpu"]); got != "2/4" {
		t.Errorf("new entry gomaxprocs/num_cpu = %s, want 2/4", got)
	}
	if !strings.Contains(string(entries["old"]["total_instrs_per_sec"]), "1000") {
		t.Errorf("old entry lost its figures: %s", data)
	}
}

// A snapshot file written before set-up was recorded still merges: its arch
// results keep their exact fields, and the new entry's carry the set-up
// figures.
func TestSnapshotMergesEntriesWithoutSetupFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	old := `{"old": {"go_version": "go1.22.0", "goarch": "amd64", "warmup": 5000, "measure": 20000, "archs": {"dkip": {"bench": "swim", "iterations": 20, "instrs": 500000, "elapsed_ns": 1000000, "instrs_per_sec": 1000, "allocs_per_op": 7, "bytes_per_op": 9}}, "total_instrs_per_sec": 1000}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := archResult{Bench: "swim", Iterations: 1, SetupNSPerOp: 1500, SetupAllocsPerOp: 40, SetupBytesPerOp: 2048}
	if err := writeSnapshot(path, "new", snapshot{Archs: map[string]archResult{"dkip": fresh}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries map[string]struct {
		Archs map[string]map[string]json.RawMessage `json:"archs"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	oldArch, newArch := entries["old"].Archs["dkip"], entries["new"].Archs["dkip"]
	for _, field := range []string{"setup_ns_per_op", "setup_allocs_per_op", "setup_bytes_per_op"} {
		if _, ok := oldArch[field]; ok {
			t.Errorf("old entry gained %q: %s", field, data)
		}
		if _, ok := newArch[field]; !ok {
			t.Errorf("new entry lacks %q: %s", field, data)
		}
	}
	if string(oldArch["allocs_per_op"]) != "7" || string(oldArch["bytes_per_op"]) != "9" {
		t.Errorf("old entry lost its figures: %s", data)
	}
}

// measureSetup times what a fresh simulation pays before its first cycle:
// building the engine allocates.
func TestMeasureSetup(t *testing.T) {
	ns, allocs, bytes := measureSetup(sim.MustPresetSpec("inorder", "swim", 10, 10), 2)
	if ns <= 0 || allocs == 0 || bytes == 0 {
		t.Errorf("measureSetup = %d ns, %d allocs, %d bytes per set-up; want all positive", ns, allocs, bytes)
	}
}
