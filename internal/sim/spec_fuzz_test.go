package sim

import (
	"regexp"
	"testing"

	"dkip/internal/core"
	"dkip/internal/mem"
	"dkip/internal/ooo"
	"dkip/internal/workload"
)

var keyFormat = regexp.MustCompile(`^[0-9a-f]{32}$`)

// FuzzSpecKey fuzzes the content-hash normalization invariants the whole
// caching stack (memo cache, persistent store, shard assignment) leans on:
//
//   - Key() is deterministic and always 32 lowercase hex characters;
//   - presentation-only Name fields (config and memory subsystem) never
//     affect the hash;
//   - explicitly applying the defaults a zero field stands for hashes
//     identically to omitting them (normalization is idempotent);
//   - behaviourally distinct specs constructed in one invocation — different
//     scale, workload, tag, or engine — never collide.
//
// The in-code f.Add seeds are mirrored by a checked-in corpus under
// testdata/fuzz/FuzzSpecKey (exercised on every plain `go test` run); run
// the fuzzer itself with `go test -fuzz=FuzzSpecKey ./internal/sim`.
func FuzzSpecKey(f *testing.F) {
	f.Add(true, uint64(0), uint64(1), uint64(1000), uint64(4000), uint64(2048), uint64(40), uint64(20), uint64(512<<10), "DKIP-2048", "")
	f.Add(false, uint64(3), uint64(4), uint64(30000), uint64(200000), uint64(0), uint64(0), uint64(0), uint64(0), "R10-64", "tag")
	f.Add(true, uint64(7), uint64(7), uint64(0), uint64(1), uint64(1), uint64(2), uint64(3), uint64(4), "", "x")
	f.Fuzz(func(t *testing.T, archDKIP bool, benchA, benchB, warmup, measure, llib, cpq, mpq, l2 uint64, name, tag string) {
		names := workload.Names()
		bench := names[int(benchA%uint64(len(names)))]
		other := names[int(benchB%uint64(len(names)))]

		// mk assembles the spec under test; the modular reductions keep
		// the uint64 fuzz inputs inside sane int ranges without losing
		// variety.
		mk := func(configName string) RunSpec {
			memCfg := mem.DefaultConfig().WithL2Size(int(l2 % (64 << 20)))
			if archDKIP {
				s := DKIPSpec(bench, core.Config{
					Name:     configName,
					CPIQSize: int(cpq % 1024),
					MPIQSize: int(mpq % 1024),
					LLIBSize: int(llib % 65536),
					Mem:      memCfg,
				}, warmup, measure)
				s.Tag = tag
				return s
			}
			cfg := ooo.R10K64()
			cfg.Name = configName
			cfg.IQSize = int(cpq % 1024)
			cfg.LSQSize = int(mpq % 1024)
			cfg.Mem = memCfg
			s := OOOSpec(bench, cfg, warmup, measure)
			s.Tag = tag
			return s
		}
		spec := mk(name)
		key := spec.Key()

		// Determinism and format.
		if spec.Key() != key {
			t.Fatalf("Key() not deterministic: %s then %s", key, spec.Key())
		}
		if !keyFormat.MatchString(key) {
			t.Fatalf("Key() = %q, want 32 lowercase hex characters", key)
		}

		// Config and memory-subsystem Names are presentation-only.
		if mk("").Key() != key {
			t.Errorf("config Name %q changed the key", name)
		}
		renamed := spec
		if archDKIP {
			renamed.DKIP.Mem.Name = "renamed-subsystem"
		} else {
			renamed.OOO.Mem.Name = "renamed-subsystem"
		}
		if renamed.Key() != key {
			t.Error("memory-subsystem Name changed the key")
		}

		// Normalization idempotence: a config with its defaults spelled
		// out is the same machine as the zero-field spelling.
		defaulted := spec
		if archDKIP {
			defaulted.DKIP = defaulted.DKIP.WithDefaults()
		} else {
			defaulted.OOO = defaulted.OOO.WithDefaults()
		}
		if defaulted.Key() != key {
			t.Error("explicitly-set defaults hash differently from omitted ones")
		}

		// Behaviourally distinct variants must never collide with the base
		// spec or each other.
		seen := map[string]string{key: "base"}
		check := func(label string, v RunSpec) {
			k := v.Key()
			if prev, dup := seen[k]; dup {
				t.Errorf("variant %q collides with %q on key %s", label, prev, k)
				return
			}
			seen[k] = label
		}
		longer := spec
		longer.Measure = measure + 1
		check("measure+1", longer)
		warmer := spec
		warmer.Warmup = warmup + 1
		check("warmup+1", warmer)
		if other != bench {
			moved := spec
			moved.Bench = other
			check("other bench", moved)
		}
		tagged := spec
		tagged.Tag = tag + "~"
		check("other tag", tagged)
		flipped := mk(name)
		if archDKIP {
			flipped = OOOSpec(bench, ooo.R10K64(), warmup, measure)
		} else {
			flipped = DKIPSpec(bench, core.Config{}, warmup, measure)
		}
		flipped.Tag = tag
		check("other engine", flipped)
	})
}
