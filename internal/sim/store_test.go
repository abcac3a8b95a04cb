package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dkip/internal/core"
	"dkip/internal/ooo"
	"dkip/internal/pipeline"
)

// storeSpecs is a small mixed spec set reused by the store tests.
func storeSpecs() []RunSpec {
	return []RunSpec{
		DKIPSpec("swim", core.Config{}, testWarmup, testMeasure),
		DKIPSpec("mcf", core.Config{}, testWarmup, testMeasure),
		OOOSpec("gzip", ooo.R10K64(), testWarmup, testMeasure),
	}
}

// resultBytes renders a Result for bit-identity comparison. Cached and
// Elapsed are normalized away: they describe how and how fast this copy was
// produced, not what was simulated.
func resultBytes(t *testing.T, r *Result) string {
	t.Helper()
	c := r.clone(false)
	c.Elapsed = 0
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fakeResult builds a store entry without running the simulator.
func fakeResult(key string) *Result {
	return &Result{
		Key: key, Arch: "dkip", Config: "DKIP-2048", Bench: "swim",
		Warmup: 1, Measure: 2, Stats: &pipeline.Stats{Cycles: 10, Committed: 20},
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 16)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store served a result")
	}
	want := fakeResult(key)
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("stored entry not readable")
	}
	if resultBytes(t, got) != resultBytes(t, want) {
		t.Errorf("round trip drifted:\n got %s\nwant %s", resultBytes(t, got), resultBytes(t, want))
	}
	if err := s.Put(&Result{Stats: &pipeline.Stats{}}); err == nil {
		t.Error("Put accepted a result without a content key")
	}
	// Overwriting an existing entry is allowed (last write wins).
	want.Stats.Cycles = 99
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(key); got.Stats.Cycles != 99 {
		t.Error("overwrite did not take effect")
	}
	// Atomic writes leave no temp droppings behind.
	matches, err := filepath.Glob(filepath.Join(s.Dir(), "objects", "*", ".tmp-*"))
	if err != nil || len(matches) != 0 {
		t.Errorf("temp files left behind: %v (err %v)", matches, err)
	}
}

func TestStoreIgnoresStaleVersionAndMismatchedKey(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("cd", 16)
	if err := s.Put(fakeResult(key)); err != nil {
		t.Fatal(err)
	}

	// A future format version must read as a miss, not garbage.
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(data), `"version": 1`, `"version": 99`, 1)
	if stale == string(data) {
		t.Fatal("entry does not carry the version stamp")
	}
	if err := os.WriteFile(s.path(key), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Error("entry with a different format version was served")
	}

	// An entry renamed to a different key (key echo mismatch) is a miss.
	if err := s.Put(fakeResult(key)); err != nil {
		t.Fatal(err)
	}
	other := strings.Repeat("ce", 16)
	if err := os.MkdirAll(filepath.Dir(s.path(other)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.path(key), s.path(other)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(other); ok {
		t.Error("entry stored under a mismatched key was served")
	}
}

// storeKeys collects the sorted content keys of every valid entry through
// Walk.
func storeKeys(t *testing.T, s *Store) []string {
	t.Helper()
	var keys []string
	if err := s.Walk(func(r *Result) error {
		keys = append(keys, r.Key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	return keys
}

// The manifest, listed through Walk, holds every valid entry and skips a
// corrupted one.
func TestStoreListAndKeys(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{strings.Repeat("ff", 16), strings.Repeat("00", 16), strings.Repeat("9a", 16)}
	for _, k := range keys {
		if err := s.Put(fakeResult(k)); err != nil {
			t.Fatal(err)
		}
	}
	// A corrupted entry is skipped by the manifest, not fatal.
	bad := strings.Repeat("11", 16)
	if err := s.Put(fakeResult(bad)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(bad), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := storeKeys(t, s)
	want := []string{keys[1], keys[2], keys[0]} // sorted
	if len(got) != len(want) {
		t.Fatalf("walked keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walked keys = %v, want %v", got, want)
		}
	}
}

// TestStoreRoundTripAcrossRunners is the cross-process integration test: a
// store populated by one Runner fully serves a fresh Runner over the same
// directory (the second process of a warm-start), every record bit-identical
// to the original; a corrupted entry is quietly re-simulated and healed.
func TestStoreRoundTripAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	specs := storeSpecs()

	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(WithStore(st1))
	res1, err := r1.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	m1 := r1.Metrics()
	if m1.Simulated != uint64(len(specs)) || m1.DiskWrites != uint64(len(specs)) || m1.DiskHits != 0 {
		t.Fatalf("populate metrics = %+v", m1)
	}

	// A fresh Store handle + fresh Runner stands in for a new process.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(WithStore(st2), OnSimulate(func(s RunSpec) {
		t.Errorf("warm store re-simulated %s", s.Label())
	}))
	res2, err := r2.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	m2 := r2.Metrics()
	if m2.Simulated != 0 || m2.DiskHits != uint64(len(specs)) {
		t.Fatalf("warm metrics = %+v", m2)
	}
	// Disk-served runs must still appear in the per-run records (the -json
	// artifact of a fully warm pass), marked Cached.
	recorded := r2.Results()
	if len(recorded) != len(specs) {
		t.Errorf("warm Results() holds %d records, want %d", len(recorded), len(specs))
	}
	for i, res := range recorded {
		if !res.Cached {
			t.Errorf("warm Results()[%d] not marked Cached", i)
		}
	}
	for i := range specs {
		if !res2[i].Cached {
			t.Errorf("run %d not marked cached", i)
		}
		if resultBytes(t, res2[i]) != resultBytes(t, res1[i]) {
			t.Errorf("run %d drifted through the store:\n got %s\nwant %s",
				i, resultBytes(t, res2[i]), resultBytes(t, res1[i]))
		}
		// A disk hit serves the stored record itself, so even the recorded
		// wall time of the original simulation round-trips exactly.
		if res2[i].Elapsed != res1[i].Elapsed {
			t.Errorf("run %d Elapsed = %v through the store, want the original %v",
				i, res2[i].Elapsed, res1[i].Elapsed)
		}
	}

	// Truncate one entry: the next Runner re-simulates only that spec —
	// no error — and the write-behind heals the entry.
	victim := specs[1].Key()
	data, err := os.ReadFile(st2.path(victim))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st2.path(victim), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sims atomic.Uint64
	r3 := NewRunner(WithStore(st3), OnSimulate(func(RunSpec) { sims.Add(1) }))
	res3, err := r3.RunAll(specs)
	if err != nil {
		t.Fatalf("corrupted entry was fatal: %v", err)
	}
	if got := sims.Load(); got != 1 {
		t.Errorf("simulated %d specs after corrupting one entry, want 1", got)
	}
	if resultBytes(t, res3[1]) != resultBytes(t, res1[1]) {
		t.Error("re-simulated result differs from the original (determinism violation)")
	}
	if m3 := r3.Metrics(); m3.DiskHits != uint64(len(specs))-1 || m3.DiskWrites != 1 {
		t.Errorf("heal metrics = %+v", m3)
	}
	if healed, ok := st3.Get(victim); !ok {
		t.Error("corrupted entry was not rewritten")
	} else if resultBytes(t, healed) != resultBytes(t, res1[1]) {
		t.Error("healed entry differs from the original")
	}
}

// NoMemo means "always really simulate": it must bypass the persistent tier
// in both directions, or raw-speed benchmarks would measure disk reads.
func TestNoMemoBypassesStore(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := storeSpecs()[0]
	var sims atomic.Uint64
	r := NewRunner(NoMemo(), WithStore(st), OnSimulate(func(RunSpec) { sims.Add(1) }))
	for i := 0; i < 2; i++ {
		if _, err := r.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	if got := sims.Load(); got != 2 {
		t.Errorf("simulated %d times, want 2", got)
	}
	if keys := storeKeys(t, st); len(keys) != 0 {
		t.Errorf("NoMemo runner wrote %d entries to the store", len(keys))
	}
}

// TestStoreSweepsStaleTempFiles plants orphaned atomic-write temp files of
// both ages: OpenStore must remove the stale one (a writer killed between
// CreateTemp and Rename an hour ago) and leave the fresh one (a concurrent
// writer mid-Put) untouched.
func TestStoreSweepsStaleTempFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fakeResult(strings.Repeat("ab", 16))); err != nil {
		t.Fatal(err)
	}
	entryDir := filepath.Join(dir, "objects", "ab")
	stale := filepath.Join(entryDir, ".tmp-stale")
	fresh := filepath.Join(entryDir, ".tmp-fresh")
	staleBlob := filepath.Join(dir, "checkpoints", "cd", ".tmp-blob")
	if err := os.MkdirAll(filepath.Dir(staleBlob), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{stale, fresh, staleBlob} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * storeTempMaxAge)
	for _, p := range []string{stale, staleBlob} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{stale, staleBlob} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale temp file %s survived the sweep (err=%v)", p, err)
		}
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file was swept: %v", err)
	}
	// The real entry is untouched.
	if _, ok := s.Get(strings.Repeat("ab", 16)); !ok {
		t.Error("sweep damaged a live entry")
	}
}

// TestStoreWalkServesMisplacedEntries files a valid entry under the wrong
// fan-out directory — what a hand-merged shard directory can produce — and
// checks Walk/List still yield it, while Get (which derives the path from
// the key) correctly misses.
func TestStoreWalkServesMisplacedEntries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("cd", 16)
	res := fakeResult(key)
	data, err := json.Marshal(storeEntry{Version: storeVersion, Key: key, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	// File it under objects/ff/ instead of objects/cd/.
	wrong := filepath.Join(dir, "objects", "ff")
	if err := os.MkdirAll(wrong, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(wrong, key+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []string
	if err := s.Walk(func(r *Result) error {
		seen = append(seen, r.Key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != key {
		t.Errorf("walk yielded %v, want the misplaced entry %s", seen, key)
	}
	if _, ok := s.Get(key); ok {
		t.Error("Get found an entry that is not at its keyed path")
	}
}

// TestStoreBlobRoundTrip covers the checkpoint blob tier: miss, write, hit,
// and rejection of degenerate kinds/keys.
func TestStoreBlobRoundTrip(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ef", 16)
	if _, ok := s.GetBlob("checkpoints", key); ok {
		t.Fatal("empty store served a blob")
	}
	want := []byte{0x44, 0x4b, 0x43, 0x50, 1, 2, 3}
	if err := s.PutBlob("checkpoints", key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetBlob("checkpoints", key)
	if !ok || string(got) != string(want) {
		t.Fatalf("blob round trip: got %v ok=%v", got, ok)
	}
	if err := s.PutBlob("", key, want); err == nil {
		t.Error("PutBlob accepted an empty kind")
	}
	if err := s.PutBlob("checkpoints", "x", want); err == nil {
		t.Error("PutBlob accepted a degenerate key")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints != 1 {
		t.Errorf("Stats.Checkpoints = %d, want 1", st.Checkpoints)
	}
}

// TestStoreWalkBlobs covers the enumeration the membership registry is
// built on: every blob of a kind is visited exactly once, other kinds are
// invisible, and a kind that was never written walks zero entries.
func TestStoreWalkBlobs(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		strings.Repeat("aa", 8): "lease-a",
		strings.Repeat("bb", 8): "lease-b",
		strings.Repeat("cc", 8): "lease-c",
	}
	for k, v := range want {
		if err := s.PutBlob("members", k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutBlob("checkpoints", strings.Repeat("dd", 8), []byte("ckpt")); err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	err = s.WalkBlobs("members", func(key string, data []byte) error {
		if _, dup := got[key]; dup {
			t.Errorf("key %s visited twice", key)
		}
		got[key] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("walked %d blobs, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("blob %s = %q, want %q", k, got[k], v)
		}
	}

	visits := 0
	if err := s.WalkBlobs("never-written", func(string, []byte) error { visits++; return nil }); err != nil {
		t.Fatalf("walking an absent kind: %v", err)
	}
	if visits != 0 {
		t.Errorf("absent kind visited %d blobs", visits)
	}
}

// TestStoreDeleteBlob: deletion removes the blob, is idempotent, and leaves
// siblings alone — the lease-withdrawal and tombstone-GC primitive.
func TestStoreDeleteBlob(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := strings.Repeat("aa", 8), strings.Repeat("bb", 8)
	for _, k := range []string{ka, kb} {
		if err := s.PutBlob("members", k, []byte("lease")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DeleteBlob("members", ka); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetBlob("members", ka); ok {
		t.Fatal("deleted blob still served")
	}
	if _, ok := s.GetBlob("members", kb); !ok {
		t.Fatal("sibling blob vanished with the deletion")
	}
	if err := s.DeleteBlob("members", ka); err != nil {
		t.Fatalf("second delete of the same blob: %v", err)
	}
	if err := s.DeleteBlob("members", "zz"); err != nil {
		t.Fatalf("deleting a never-written blob: %v", err)
	}
}

// TestStoreHas: presence checks without decoding, the primitive the
// /v1/progress endpoint polls with.
func TestStoreHas(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 16)
	if s.Has(key) {
		t.Fatal("empty store reports a key present")
	}
	if err := s.Put(fakeResult(key)); err != nil {
		t.Fatal(err)
	}
	if !s.Has(key) {
		t.Fatal("stored key reported absent")
	}
	if s.Has("x") || s.Has("") {
		t.Fatal("degenerate key reported present")
	}
}
