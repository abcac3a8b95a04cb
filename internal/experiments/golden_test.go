package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden snapshots:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

// Every registered experiment is snapshotted. Simulations are deterministic
// (see internal/sim's determinism test), so these snapshots catch any
// unintended behaviour change in the pipeline models, the workload
// generators, or the table rendering — across the full registry, not just a
// representative subset. Under the race detector, where simulation is an
// order of magnitude slower and goldens add determinism (not concurrency)
// coverage, only the original representative subset is checked.
func goldenIDs() []string {
	if raceDetectorEnabled {
		return []string{"table1", "table2", "table3", "fig13", "ablation-aging"}
	}
	return IDs()
}

// goldenScale is deliberately smaller than QuickScale: the window sweeps of
// fig1/fig2 simulate 4K-entry limit cores across six memory subsystems, and
// snapshotting the whole registry at QuickScale would cost minutes per test
// run. 2k/8k keeps the full golden suite to tens of seconds while still
// driving every experiment's code path end to end.
func goldenScale() Scale { return Scale{Warmup: 2_000, Measure: 8_000} }

// simulated reports whether the experiment runs the simulator (vs rendering
// static configuration tables).
func simulated(id string) bool {
	return id != "table1" && id != "table2" && id != "table3"
}

func TestGoldenTables(t *testing.T) {
	for _, id := range goldenIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && simulated(id) {
				t.Skip("simulation experiment")
			}
			tab, err := RunWith(testRunner, id, goldenScale())
			if err != nil {
				t.Fatal(err)
			}
			got := tab.String()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from golden %s.\ngot:\n%s\nwant:\n%s\n(re-run with -update if the change is intended)",
					id, path, got, want)
			}
		})
	}
}
