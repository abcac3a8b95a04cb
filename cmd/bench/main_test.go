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
