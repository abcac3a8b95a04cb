package sim

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dkip/internal/core"
	"dkip/internal/engine"
	"dkip/internal/inorder"
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

// TestValidateRejectsUnbuildable lists machines whose configurations pass
// every field-level check but that their constructors cannot build: a
// cache geometry mem.NewCache rejects, a SLIQ behind in-order issue queues,
// and a negative L1 latency. Validate must refuse each, so a daemon never
// constructs one; NewEngine panicking on each shows the case is real.
func TestValidateRejectsUnbuildable(t *testing.T) {
	oddL1 := core.Config{Mem: mem.DefaultConfig()}
	oddL1.Mem.L1Size = 32769
	kiloInOrder := kilo.Config1024()
	kiloInOrder.InOrder = true
	badLat := mem.DefaultConfig()
	badLat.L1Latency = -1
	r10 := ooo.R10K64()
	r10.Mem = badLat
	c920 := inorder.C920()
	c920.Mem.L1Latency = -1
	for _, c := range []struct {
		name string
		spec RunSpec
	}{
		{"dkip L1Size 32769", DKIPSpec("swim", oddL1, 1000, 4000)},
		{"kilo InOrder", OOOSpec("swim", kiloInOrder, 1000, 4000)},
		{"dkip L1Latency -1", DKIPSpec("swim", core.Config{Mem: badLat}, 1000, 4000)},
		{"ooo L1Latency -1", OOOSpec("swim", r10, 1000, 4000)},
		{"inorder L1Latency -1", InorderSpec("swim", c920, 1000, 4000)},
	} {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			c.spec.NewEngine()
			return false
		}()
		if !panicked {
			t.Errorf("%s: NewEngine built the machine", c.name)
		}
	}
}

// TestValidateRejectsNegativeFields sets each integer field of every
// preset's engine configuration, the functional-unit complements included
// and the memory configuration (checked on its own) excluded, to -1, one
// field at a time. Zero means "default" or "off" and no field has a meaning
// below it, so Validate must refuse each spec, and the constructor, which
// validates too, must refuse to build it: some of these values used to
// panic inside a constructor or mid-run, and others simulated silently.
func TestValidateRejectsNegativeFields(t *testing.T) {
	configField := map[Arch]string{ArchOOO: "OOO", ArchDKIP: "DKIP", ArchInorder: "Inorder"}
	memConfig := reflect.TypeOf(mem.Config{})
	// intFields lists the index paths of typ's integer fields and names them.
	var intFields func(typ reflect.Type, at []int, prefix string) (paths [][]int, names []string)
	intFields = func(typ reflect.Type, at []int, prefix string) (paths [][]int, names []string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path := append(append([]int(nil), at...), i)
			switch {
			case f.Type.Kind() == reflect.Int:
				paths, names = append(paths, path), append(names, prefix+f.Name)
			case f.Type.Kind() == reflect.Struct && f.Type != memConfig:
				p, n := intFields(f.Type, path, prefix+f.Name+".")
				paths, names = append(paths, p...), append(names, n...)
			}
		}
		return paths, names
	}
	checked := 0
	for _, preset := range PresetNames() {
		base := MustPresetSpec(preset, "swim", 1000, 4000)
		field, ok := configField[base.Arch]
		if !ok {
			t.Fatalf("%s: no config field for arch %s — extend the table", preset, base.Arch)
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: preset rejected: %v", preset, err)
		}
		paths, names := intFields(reflect.ValueOf(base).FieldByName(field).Type(), nil, "")
		for i, path := range paths {
			spec := base
			reflect.ValueOf(&spec).Elem().FieldByName(field).FieldByIndex(path).SetInt(-1)
			if err := spec.Validate(); err == nil {
				t.Errorf("%s with %s -1: accepted", preset, names[i])
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				spec.NewEngine()
				return false
			}()
			if !panicked {
				t.Errorf("%s with %s -1: NewEngine built the machine", preset, names[i])
			}
			checked++
		}
	}
	if checked < 100 {
		t.Errorf("checked only %d preset fields", checked)
	}
}

// TestValidateBoundsSizes sets each field a constructor sizes an
// allocation by to 1<<40 on each preset, one at a time: Validate must refuse
// it with an error naming the limit it is over. No engine is built from
// these specs: before the limits, Validate accepted most of them, and the
// constructor then attempted the allocation (a 246 TB fetch queue for
// R10-64's FrontEndDepth).
func TestValidateBoundsSizes(t *testing.T) {
	sizing := map[Arch][]string{
		ArchDKIP:    {"FetchWidth", "FrontEndDepth", "ROBSize", "LLIBSize", "MPIQSize", "LLRFBanks", "CPFU.FPMulDiv", "MPFU.FPMulDiv", "Mem.L1Size", "Mem.L2Size"},
		ArchOOO:     {"FetchWidth", "FrontEndDepth", "ROBSize", "SLIQSize", "RunaheadDepth", "FU.FPMulDiv", "Mem.L1Size", "Mem.L2Size"},
		ArchInorder: {"FetchWidth", "FrontEndDepth", "Window", "Mem.L1Size", "Mem.L2Size"},
	}
	limits := map[string]string{
		"LLRFBanks":     "core.MaxLLRFBanks",
		"CPFU.FPMulDiv": "pipeline.MaxFPMulDiv",
		"MPFU.FPMulDiv": "pipeline.MaxFPMulDiv",
		"FU.FPMulDiv":   "pipeline.MaxFPMulDiv",
		"Mem.L1Size":    "mem.MaxCacheLines",
		"Mem.L2Size":    "mem.MaxCacheLines",
	}
	configField := map[Arch]string{ArchOOO: "OOO", ArchDKIP: "DKIP", ArchInorder: "Inorder"}
	checked := 0
	for _, preset := range PresetNames() {
		base := MustPresetSpec(preset, "swim", 1000, 4000)
		// Defaults first, so that a memory field set below is not
		// replaced by the default memory.
		switch base.Arch {
		case ArchDKIP:
			base.DKIP = base.DKIP.WithDefaults()
		case ArchOOO:
			base.OOO = base.OOO.WithDefaults()
		case ArchInorder:
			base.Inorder = base.Inorder.WithDefaults()
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: preset rejected: %v", preset, err)
		}
		for _, name := range sizing[base.Arch] {
			spec := base
			f := reflect.ValueOf(&spec).Elem().FieldByName(configField[base.Arch])
			for _, part := range strings.Split(name, ".") {
				f = f.FieldByName(part)
			}
			f.SetInt(1 << 40)
			limit := limits[name]
			if limit == "" {
				limit = "engine.MaxArena"
			}
			if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), limit) {
				t.Errorf("%s with %s 1<<40: Validate returned %v, want an error naming %s", preset, name, err, limit)
			}
			checked++
		}
	}
	if checked != 47 {
		t.Errorf("checked %d preset fields, want 47", checked)
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
