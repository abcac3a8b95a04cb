package sim

import (
	"testing"

	"dkip/internal/mem"
	"dkip/internal/sample"
)

// pinnedSpecs are the specs whose content and checkpoint keys
// TestKeysPinned holds fixed: the six presets, the window-limit core, and
// each engine's zero configuration.
func pinnedSpecs() map[string]RunSpec {
	specs := map[string]RunSpec{
		"limit-2048":   LimitSpec(2048, mem.DefaultConfig(), "mcf", 10_000, 1_000_000),
		"zero-ooo":     {Arch: ArchOOO, Bench: "mcf", Warmup: 10_000, Measure: 1_000_000},
		"zero-dkip":    {Arch: ArchDKIP, Bench: "mcf", Warmup: 10_000, Measure: 1_000_000},
		"zero-inorder": {Arch: ArchInorder, Bench: "mcf", Warmup: 10_000, Measure: 1_000_000},
	}
	for _, name := range PresetNames() {
		specs[name] = MustPresetSpec(name, "mcf", 10_000, 1_000_000)
	}
	return specs
}

// pinnedKeys are one spec's content key, full and sampled, and its
// checkpoint keys at two stream positions.
type pinnedKeys struct{ key, sampled, ck1, ck2 string }

// TestKeysPinned pins the bytes of the keys stores are addressed by: each
// pinned spec's content key, full and under the default sampling plan (whose
// completion reads the machine's in-flight capacity), and its checkpoint
// key at two stream positions (which read the checkpoint family, the
// predictor's name and the memory configuration). A change to any of them
// turns every stored result or checkpoint into a miss without failing
// anything else: a store compared with itself cannot notice.
func TestKeysPinned(t *testing.T) {
	want := map[string]pinnedKeys{
		"dkip":         {"04174871ef8f6c3b03e39cbc851cc792", "a8989d751dba7e609866f70e7f26a57e", "854df3d688a9ffe6de5bf676da63f45b", "332f4b11d22431be28cc8a61a51ff6f9"},
		"inorder":      {"73969632e482bfcc30dc11ef892e6abf", "cd86513d60877b9fddf69e62858c1372", "aa206543af84dea4d9db5c8fc94f5b96", "2af5fc86674bb31b7cdb85eddf58d4c0"},
		"kilo":         {"e7aacb283f494e04c223d15f604b66e3", "d33af2a41fd93bdfa606c82096c493b7", "b1ca4269523e54695f4fa743f54ea839", "7626d96d2276afdf72fe28daae094d5c"},
		"r10-64":       {"af63d718edde31e30563e5da417afa4d", "2feafae9be2b2098cef1bac06d783fd5", "b1ca4269523e54695f4fa743f54ea839", "7626d96d2276afdf72fe28daae094d5c"},
		"r10-256":      {"1567baaeeb847ec9f1330d2c54861754", "e4ac2cff2436ee0c74ab81d65d35ee23", "b1ca4269523e54695f4fa743f54ea839", "7626d96d2276afdf72fe28daae094d5c"},
		"r10-768":      {"0eb082dbb4efdd9f4f83885d68107e64", "d1e1ca10eeef383216fac03f2c9e1b79", "b1ca4269523e54695f4fa743f54ea839", "7626d96d2276afdf72fe28daae094d5c"},
		"limit-2048":   {"9a0ab828ee8750e838223e717a689afc", "a52064eb22a8ebfc42d6c1c4e23ae5f9", "b1ca4269523e54695f4fa743f54ea839", "7626d96d2276afdf72fe28daae094d5c"},
		"zero-ooo":     {"56b03457623024732e18f9e33b7945e9", "e87de56bd833d7362968617900b59604", "b1ca4269523e54695f4fa743f54ea839", "7626d96d2276afdf72fe28daae094d5c"},
		"zero-dkip":    {"04174871ef8f6c3b03e39cbc851cc792", "a8989d751dba7e609866f70e7f26a57e", "854df3d688a9ffe6de5bf676da63f45b", "332f4b11d22431be28cc8a61a51ff6f9"},
		"zero-inorder": {"ce321c8f305d913e3e20254bfba6d3e8", "97c6ee7dbc2cf1e3a4705dd30ccadee0", "ad5300b9357f7520c85ee10a98be016a", "ada364caf09097642fb0f13a190f2f1b"},
	}
	specs := pinnedSpecs()
	if len(specs) != len(want) {
		t.Fatalf("%d pinned specs, %d pinned key sets: a preset was added or removed", len(specs), len(want))
	}
	for name, spec := range specs {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned keys", name)
			continue
		}
		sampled := spec
		sampled.Sample = sample.DefaultPlan()
		got := pinnedKeys{spec.Key(), sampled.Key(), spec.checkpointKey(250_000), spec.checkpointKey(1_010_000)}
		if got != w {
			t.Errorf("%s: keys %q, pinned %q", name, got, w)
		}
	}
	// The out-of-order baselines differ only in window geometry, which
	// checkpoints do not depend on: one checkpoint set serves them all.
	ck := specs["r10-64"].checkpointKey(250_000)
	for _, name := range []string{"r10-256", "r10-768", "kilo"} {
		if got := specs[name].checkpointKey(250_000); got != ck {
			t.Errorf("%s checkpoint key %s, r10-64's %s: the baselines must share checkpoints", name, got, ck)
		}
	}
}
