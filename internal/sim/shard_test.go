package sim

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dkip/internal/core"
	"dkip/internal/ooo"
)

// shardSpecs builds a spec set large enough that every shard of small n is
// non-empty with overwhelming probability.
func shardSpecs() []RunSpec {
	var specs []RunSpec
	for m := uint64(1); m <= 24; m++ {
		specs = append(specs, DKIPSpec("swim", core.Config{}, testWarmup, testMeasure+m))
	}
	return specs
}

func TestParseShard(t *testing.T) {
	cases := []struct {
		in   string
		i, n int
		ok   bool
	}{
		{"", 0, 1, true},
		{"0/1", 0, 1, true},
		{"0/2", 0, 2, true},
		{"1/2", 1, 2, true},
		{"7/16", 7, 16, true},
		{"2/2", 0, 0, false},
		{"-1/2", 0, 0, false},
		{"0/0", 0, 0, false},
		{"1", 0, 0, false},
		{"a/b", 0, 0, false},
		{"1/2/3", 0, 0, false},
	}
	for _, c := range cases {
		i, n, err := ParseShard(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseShard(%q) err = %v, want ok=%t", c.in, err, c.ok)
			continue
		}
		if c.ok && (i != c.i || n != c.n) {
			t.Errorf("ParseShard(%q) = (%d, %d), want (%d, %d)", c.in, i, n, c.i, c.n)
		}
	}
}

// Shards must partition any spec set: every spec lands in exactly one
// shard.
func TestShardPartitions(t *testing.T) {
	specs := shardSpecs()
	for _, n := range []int{1, 2, 3, 7} {
		for _, s := range specs {
			shards := 0
			for i := 0; i < n; i++ {
				if InShard(s, i, n) {
					shards++
				}
			}
			if shards != 1 {
				t.Errorf("n=%d: spec %s is in %d shards, want exactly 1", n, s.Key(), shards)
			}
		}
		total := 0
		for i := 0; i < n; i++ {
			total += shardSize(specs, i, n)
		}
		if total != len(specs) {
			t.Errorf("n=%d: shards hold %d specs, want %d", n, total, len(specs))
		}
	}
}

// shardSize counts the specs InShard assigns to shard i of n.
func shardSize(specs []RunSpec, i, n int) int {
	size := 0
	for _, s := range specs {
		if InShard(s, i, n) {
			size++
		}
	}
	return size
}

// Assignment is hash-stable: it follows the content key, so presentation
// renames never move a spec between shards, and the same spec is assigned
// identically in every process evaluating any spec set.
func TestInShardStable(t *testing.T) {
	plain := OOOSpec("gzip", ooo.R10K256(), testWarmup, testMeasure)
	renamed := plain
	renamed.OOO.Name = "R10-256@512KB"
	for i := 0; i < 4; i++ {
		if InShard(plain, i, 4) != InShard(renamed, i, 4) {
			t.Errorf("rename moved the spec relative to shard %d/4", i)
		}
	}
	for trial := 0; trial < 3; trial++ {
		if InShard(plain, 0, 2) != InShard(plain, 0, 2) {
			t.Fatal("InShard not deterministic")
		}
	}
}

// An out-of-shard spec with cold caches resolves to a Skipped placeholder —
// never a simulation — and the metrics identity still balances.
func TestRunnerSkipsOutOfShard(t *testing.T) {
	// Duplicate the set so singleflight joiners also cross the skip path.
	specs := append(append(shardSpecs(), shardSpecs()...), shardSpecs()...)
	var sims atomic.Uint64
	r := NewRunner(WithShard(0, 2), OnSimulate(func(s RunSpec) {
		if !InShard(s, 0, 2) {
			t.Errorf("simulated out-of-shard spec %s", s.Key())
		}
		sims.Add(1)
	}))
	results, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	uniqueIn := uint64(shardSize(shardSpecs(), 0, 2))
	uniqueOut := uint64(len(shardSpecs())) - uniqueIn
	if got := sims.Load(); got != uniqueIn {
		t.Errorf("simulated %d specs, want the %d unique in shard", got, uniqueIn)
	}
	for i, res := range results {
		want := !InShard(specs[i], 0, 2)
		if res.Skipped != want {
			t.Errorf("result %d Skipped = %t, want %t", i, res.Skipped, want)
		}
		if res.Skipped && res.Cached {
			t.Errorf("result %d is a zero-stats placeholder marked Cached", i)
		}
		if res.Skipped && (res.Bench != specs[i].Bench || res.Stats == nil) {
			t.Errorf("placeholder %d lacks identity fields: %+v", i, res)
		}
	}
	m := r.Metrics()
	if m.Requested != m.Simulated+m.Deduped+m.CacheHits+m.DiskHits+m.Skipped {
		t.Errorf("metrics do not balance: %+v", m)
	}
	// Placeholders are not memoized, so each out-of-shard duplicate either
	// joins an in-flight skip (Deduped) or skips afresh: at least one and
	// at most three skips per unique out-of-shard spec.
	if m.Skipped < uniqueOut || m.Skipped > 3*uniqueOut {
		t.Errorf("Skipped = %d, want within [%d, %d]", m.Skipped, uniqueOut, 3*uniqueOut)
	}
	// Skipped placeholders never pollute the per-run records.
	if recorded := r.Results(); uint64(len(recorded)) != uniqueIn {
		t.Errorf("Results() holds %d records, want the %d real simulations", len(recorded), uniqueIn)
	}
}

// The acceptance path: every shard run over one shared Store populates
// exactly the result set of an unsharded run, and a final unsharded pass is
// served entirely from disk.
func TestShardedRunnersPopulateFullStore(t *testing.T) {
	specs := shardSpecs()[:8]
	const n = 2

	unshardedDir := t.TempDir()
	ust, err := OpenStore(unshardedDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(WithStore(ust)).RunAll(specs); err != nil {
		t.Fatal(err)
	}
	wantKeys := storeKeys(t, ust)

	shardedDir := t.TempDir()
	for i := 0; i < n; i++ {
		st, err := OpenStore(shardedDir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(WithStore(st), WithShard(i, n))
		if _, err := r.RunAll(specs); err != nil {
			t.Fatal(err)
		}
		m := r.Metrics()
		if want := shardSize(specs, i, n); m.Simulated != uint64(want) {
			t.Errorf("shard %d simulated %d, want %d", i, m.Simulated, want)
		}
	}
	st, err := OpenStore(shardedDir)
	if err != nil {
		t.Fatal(err)
	}
	gotKeys := storeKeys(t, st)
	if fmt.Sprint(gotKeys) != fmt.Sprint(wantKeys) {
		t.Fatalf("shard union = %v, unsharded = %v", gotKeys, wantKeys)
	}

	// The merged store serves a final unsharded pass without simulating,
	// and each record is bit-identical to the unsharded run's.
	r := NewRunner(WithStore(st), OnSimulate(func(s RunSpec) {
		t.Errorf("merged store re-simulated %s", s.Label())
	}))
	merged, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	uref := NewRunner(WithStore(ust))
	ref, err := uref.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if resultBytes(t, merged[i]) != resultBytes(t, ref[i]) {
			t.Errorf("spec %d: sharded result differs from unsharded", i)
		}
	}
}
