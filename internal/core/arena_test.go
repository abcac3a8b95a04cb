package core_test

import (
	"encoding/json"
	"errors"
	"testing"

	"dkip/internal/core"
	"dkip/internal/experiments"
	"dkip/internal/sim"
)

// specRecorder is a sim.Backend that records the specs an experiment
// submits and fails the submission, which ends the experiment after its
// first batch. Experiments submit through RunAll alone; the other methods
// are the nil embedded Backend's.
type specRecorder struct {
	sim.Backend
	specs []sim.RunSpec
}

var errRecorded = errors.New("recorded")

func (r *specRecorder) RunAll(ss []sim.RunSpec) ([]*sim.Result, error) {
	r.specs = append(r.specs, ss...)
	return nil, errRecorded
}

// dkipConfigs returns the distinct D-KIP configurations an experiment's
// first batch builds, keyed by their JSON form.
func dkipConfigs(t *testing.T, id string) map[string]core.Config {
	t.Helper()
	rec := &specRecorder{}
	// A static table submits nothing and returns no error.
	if _, err := experiments.RunWith(rec, id, experiments.QuickScale()); err != nil && !errors.Is(err, errRecorded) {
		t.Fatalf("%s: RunWith returned %v, want the recorder's error", id, err)
	}
	out := map[string]core.Config{}
	for _, s := range rec.specs {
		if s.Arch != sim.ArchDKIP {
			continue
		}
		cfg := s.DKIP.WithDefaults()
		key, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[string(key)] = cfg
	}
	return out
}

// TestArenaCoversRenameSpread checks the window arena of every D-KIP
// configuration the repository builds: the preset, and each one the first
// batch of a registered experiment submits, among them Figure 10's 15
// scheduler variants and the LLIB ablation's 256 to 4,096 entries. Rename
// keeps the live sequence numbers within spreadCap, so the arena must hold
// at least that many entries, and it is the smallest power of two that
// does; Lookahead is the arena plus the fetch queue.
func TestArenaCoversRenameSpread(t *testing.T) {
	all := map[string]core.Config{"preset": sim.MustPresetSpec("dkip", "mcf", 0, 1).DKIP.WithDefaults()}
	for _, id := range experiments.IDs() {
		cfgs := dkipConfigs(t, id)
		switch id {
		case "fig10":
			if len(cfgs) != 15 {
				t.Errorf("fig10 builds %d D-KIP configurations, want 15", len(cfgs))
			}
		case "ablation-llib":
			if len(cfgs) != 5 {
				t.Errorf("ablation-llib builds %d D-KIP configurations, want 5", len(cfgs))
			}
		}
		for k, cfg := range cfgs {
			all[k] = cfg
		}
	}
	for _, cfg := range all {
		p := core.New(cfg)
		arena, spread := p.Win.Capacity(), p.SpreadCap()
		if arena < spread || (arena > 64 && arena/2 >= spread) {
			t.Errorf("%s: arena of %d entries for a rename spread of %d, want the smallest power of two at least 64 that holds it",
				cfg.Name, arena, spread)
		}
		if got, want := p.Lookahead(), uint64(arena+len(p.FQ)); got != want {
			t.Errorf("%s: Lookahead %d, want the arena plus the fetch queue, %d", cfg.Name, got, want)
		}
	}
	p := core.New(core.DefaultConfig())
	if p.Win.Capacity() != 8192 || p.SpreadCap() != 4292 || p.Lookahead() != 8220 {
		t.Errorf("DKIP-2048: arena %d, spread %d, Lookahead %d; want 8192, 4292, 8220",
			p.Win.Capacity(), p.SpreadCap(), p.Lookahead())
	}
	t.Logf("%d D-KIP configurations", len(all))
}
