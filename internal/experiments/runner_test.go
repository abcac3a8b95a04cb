package experiments

import (
	"errors"
	"sync"
	"testing"

	"dkip/internal/sim"
	"dkip/internal/workload"
)

// Figures 9 and 11 both simulate the R10-256 baseline with the default
// 512KB hierarchy on every SpecINT benchmark (Figure 11 spells the
// hierarchy out per sweep point, Figure 9 relies on defaults). Through one
// shared Runner those overlapping RunSpecs must simulate exactly once per
// process — the tentpole invariant of the run-orchestration layer.
func TestOverlappingFiguresSimulateOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	var mu sync.Mutex
	simsPerKey := map[string]int{}
	r := sim.NewRunner(sim.OnSimulate(func(s sim.RunSpec) {
		mu.Lock()
		simsPerKey[s.Key()]++
		mu.Unlock()
	}))

	s := Scale{Warmup: 500, Measure: 2000}
	for _, id := range []string{"fig9", "fig11"} {
		if _, err := RunWith(r, id, s); err != nil {
			t.Fatal(err)
		}
	}

	for key, n := range simsPerKey {
		if n != 1 {
			t.Errorf("spec %s simulated %d times, want exactly once", key, n)
		}
	}
	m := r.Metrics()
	// The R10-256 runs on the 12 SpecINT benchmarks are requested by both
	// figures; only the first requester may simulate.
	minOverlap := uint64(len(workload.SuiteNames(workload.SpecINT)))
	if m.CacheHits+m.Deduped < minOverlap {
		t.Errorf("dedup+cache served %d runs, want >= %d (the R10-256 SpecINT overlap); metrics %+v",
			m.CacheHits+m.Deduped, minOverlap, m)
	}
	if m.Requested != m.Simulated+m.Deduped+m.CacheHits {
		t.Errorf("metrics do not balance: %+v", m)
	}
	if m.Simulated != uint64(len(simsPerKey)) {
		t.Errorf("Simulated = %d but hook saw %d unique keys", m.Simulated, len(simsPerKey))
	}
}

// Re-running an experiment on one Runner must not simulate anything the
// second time.
func TestRepeatedExperimentFullyCached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r := sim.NewRunner()
	s := Scale{Warmup: 500, Measure: 2000}
	if _, err := RunWith(r, "fig13", s); err != nil {
		t.Fatal(err)
	}
	before := r.Metrics().Simulated
	tab, err := RunWith(r, "fig13", s)
	if err != nil {
		t.Fatal(err)
	}
	if after := r.Metrics().Simulated; after != before {
		t.Errorf("re-run simulated %d new runs, want 0", after-before)
	}
	if len(tab.Rows) != len(workload.SuiteNames(workload.SpecINT)) {
		t.Errorf("cached re-run produced %d rows", len(tab.Rows))
	}
}

// failingBackend simulates a remote daemon dying mid-sweep: every submission
// errors at the transport.
type failingBackend struct{}

func (failingBackend) Run(sim.RunSpec) (*sim.Result, error) { return nil, errors.New("daemon gone") }
func (failingBackend) RunAll([]sim.RunSpec) ([]*sim.Result, error) {
	return nil, errors.New("daemon gone")
}
func (failingBackend) Results() []*sim.Result { return nil }
func (failingBackend) Metrics() sim.Metrics   { return sim.Metrics{} }

// A Backend failure inside an experiment must surface as RunWith's error,
// not crash the process: with -remote, transport failures are routine.
func TestRunWithSurfacesBackendErrors(t *testing.T) {
	if _, err := RunWith(failingBackend{}, "fig9", QuickScale()); err == nil {
		t.Fatal("backend failure did not surface as an error")
	}
}
