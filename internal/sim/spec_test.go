package sim

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"dkip/internal/core"
	"dkip/internal/engine"
	"dkip/internal/kilo"
	"dkip/internal/mem"
	"dkip/internal/ooo"
	"dkip/internal/predictor"
)

func TestKeyDeterministic(t *testing.T) {
	a := DKIPSpec("swim", core.Config{}, 1000, 4000)
	b := DKIPSpec("swim", core.Config{}, 1000, 4000)
	if a.Key() != b.Key() {
		t.Errorf("identical specs hash differently: %s vs %s", a.Key(), b.Key())
	}
	if len(a.Key()) != 32 {
		t.Errorf("key %q not 32 hex chars", a.Key())
	}
}

func TestKeyDiscriminates(t *testing.T) {
	base := DKIPSpec("swim", core.Config{}, 1000, 4000)
	variants := map[string]RunSpec{
		"bench":   DKIPSpec("mcf", core.Config{}, 1000, 4000),
		"warmup":  DKIPSpec("swim", core.Config{}, 2000, 4000),
		"measure": DKIPSpec("swim", core.Config{}, 1000, 8000),
		"config":  DKIPSpec("swim", core.Config{LLIBSize: 1024}, 1000, 4000),
		"mem":     DKIPSpec("swim", core.Config{Mem: mem.DefaultConfig().WithL2Size(1 << 20)}, 1000, 4000),
		"arch":    OOOSpec("swim", ooo.R10K64(), 1000, 4000),
		"tag":     {Arch: ArchDKIP, Bench: "swim", Warmup: 1000, Measure: 4000, Tag: "x"},
	}
	for name, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("%s variant hashes equal to base", name)
		}
	}
}

// The Name fields of every config are presentation-only: specs differing
// only in names must dedupe.
func TestKeyIgnoresNames(t *testing.T) {
	a := ooo.R10K256()
	b := ooo.R10K256()
	b.Name = "R10-256@512KB"
	b.Mem = mem.DefaultConfig().WithL2Size(512 << 10) // same geometry, renamed
	sa := OOOSpec("gzip", a, 1000, 4000)
	sb := OOOSpec("gzip", b, 1000, 4000)
	if sa.Key() != sb.Key() {
		t.Error("renamed but identical machine hashes differently")
	}
}

// A zero config and the explicitly spelled-out paper defaults are the same
// machine; normalization must make them hash equal.
func TestKeyNormalizesDefaults(t *testing.T) {
	zero := DKIPSpec("swim", core.Config{}, 1000, 4000)
	spelled := DKIPSpec("swim", core.Config{
		CPIQSize:  40,
		MPIQSize:  20,
		MPInOrder: core.Bool(true),
		LLIBSize:  2048,
		Mem:       mem.DefaultConfig(),
	}, 1000, 4000)
	if zero.Key() != spelled.Key() {
		t.Error("zero config and explicit defaults hash differently")
	}
}

// Figure 9's R10-256 and Figure 11's R10-256@512KB describe the same
// machine on the same workloads — the cross-figure overlap the memo cache
// exists for.
func TestCrossFigureOverlapHashesEqual(t *testing.T) {
	fig9 := OOOSpec("gzip", ooo.R10K256(), 1000, 4000)
	r10 := ooo.R10K256()
	r10.Mem = mem.DefaultConfig().WithL2Size(512 << 10)
	fig11 := OOOSpec("gzip", r10, 1000, 4000)
	if fig9.Key() != fig11.Key() {
		t.Error("fig9 R10-256 and fig11 R10-256@512KB should share one simulation")
	}
}

func TestMemoizable(t *testing.T) {
	if !DKIPSpec("swim", core.Config{}, 1000, 4000).Memoizable() {
		t.Error("plain spec should be memoizable")
	}
	custom := core.Config{NewPredictor: func() predictor.Predictor { return predictor.NewPerceptron(64, 8) }}
	spec := DKIPSpec("swim", custom, 1000, 4000)
	if spec.Memoizable() {
		t.Error("spec with an opaque predictor constructor must not be memoizable untagged")
	}
	spec.Tag = "tiny-perceptron"
	if !spec.Memoizable() {
		t.Error("tag should restore memoizability")
	}
	other := spec
	other.Tag = "other-predictor"
	if spec.Key() == other.Key() {
		t.Error("tags must discriminate keys")
	}
}

func TestValidate(t *testing.T) {
	if err := DKIPSpec("swim", core.Config{}, 1000, 4000).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := DKIPSpec("no-such-bench", core.Config{}, 1000, 4000).Validate(); err == nil {
		t.Error("unknown benchmark accepted")
	} else if !strings.Contains(err.Error(), "no-such-bench") {
		t.Errorf("error does not name the benchmark: %v", err)
	}
	if err := DKIPSpec("swim", core.Config{}, 1000, 0).Validate(); err == nil {
		t.Error("zero measure accepted")
	}
	if err := OOOSpec("swim", ooo.Config{}, 1000, 4000).Validate(); err == nil {
		t.Error("ooo config without a ROB size accepted")
	}
}

// TestValidateBoundsRunLength rejects the two run lengths that broke the
// engine's arithmetic: a measure so long that the cycle budget wrapped to
// its floor, and a warmup+measure sum that wrapped to a tiny run.
func TestValidateBoundsRunLength(t *testing.T) {
	limit := strconv.FormatUint(engine.MaxRunInstrs, 10)
	for _, c := range []struct {
		name            string
		warmup, measure uint64
	}{
		{"budget-wraps", 0, 1 << 62},
		{"sum-wraps", math.MaxUint64, 2},
		{"just-over", 1, engine.MaxRunInstrs},
	} {
		err := DKIPSpec("swim", core.Config{}, c.warmup, c.measure).Validate()
		if err == nil {
			t.Errorf("%s: %d+%d accepted", c.name, c.warmup, c.measure)
		} else if !strings.Contains(err.Error(), limit) {
			t.Errorf("%s: error does not name the limit %s: %v", c.name, limit, err)
		}
	}
	if err := DKIPSpec("swim", core.Config{}, engine.MaxRunInstrs/2, engine.MaxRunInstrs/2).Validate(); err != nil {
		t.Errorf("run of exactly the limit rejected: %v", err)
	}
}

func TestConfigNameAndLabel(t *testing.T) {
	if got := DKIPSpec("swim", core.Config{}, 1, 1).ConfigName(); got != "DKIP-2048" {
		t.Errorf("ConfigName = %q, want DKIP-2048", got)
	}
	if got := OOOSpec("mcf", kilo.Config1024(), 1, 1).Label(); got != "KILO-1024/mcf" {
		t.Errorf("Label = %q", got)
	}
	if got := ArchDKIP.String(); got != "dkip" {
		t.Errorf("ArchDKIP = %q", got)
	}
}
