package sim

import (
	"fmt"
	"sort"
	"strings"

	"dkip/internal/core"
	"dkip/internal/inorder"
	"dkip/internal/kilo"
	"dkip/internal/mem"
	"dkip/internal/ooo"
)

// presets maps the named machine configurations of the paper (plus the
// calibration core) to specs without a workload or scale, so commands and
// examples can name machines without importing the model packages.
var presets = map[string]RunSpec{
	"dkip":    {Arch: ArchDKIP}, // defaults = the paper's DKIP-2048
	"r10-64":  {Arch: ArchOOO, OOO: ooo.R10K64()},
	"r10-256": {Arch: ArchOOO, OOO: ooo.R10K256()},
	"r10-768": {Arch: ArchOOO, OOO: ooo.R10K768()},
	"kilo":    {Arch: ArchOOO, OOO: kilo.Config1024()},
	"inorder": {Arch: ArchInorder, Inorder: inorder.C920()},
}

// PresetNames lists the registered machine presets, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PresetSpec builds a RunSpec for a named machine preset on a workload.
// Unknown names error with the registered list.
func PresetSpec(name, bench string, warmup, measure uint64) (RunSpec, error) {
	s, ok := presets[name]
	if !ok {
		return RunSpec{}, fmt.Errorf("sim: unknown machine preset %q (presets: %s)", name, strings.Join(PresetNames(), ", "))
	}
	s.Bench, s.Warmup, s.Measure = bench, warmup, measure
	return s, nil
}

// MustPresetSpec is PresetSpec for preset names that are code, panicking on
// unknown names.
func MustPresetSpec(name, bench string, warmup, measure uint64) RunSpec {
	s, err := PresetSpec(name, bench, warmup, measure)
	if err != nil {
		panic(err)
	}
	return s
}

// Bool is core.Bool re-exported: a *bool literal for the D-KIP's tri-state
// configuration fields, so preset-tweaking callers need not import the model
// package.
func Bool(v bool) *bool { return core.Bool(v) }

// LimitSpec builds the memory-wall limit-study machine: an out-of-order
// core whose only stall resource is an n-entry window, over memory
// configuration m (Figures 1–3).
func LimitSpec(n int, m mem.Config, bench string, warmup, measure uint64) RunSpec {
	return OOOSpec(bench, ooo.LimitCore(n, m), warmup, measure)
}
