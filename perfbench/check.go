package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"dkip/internal/pipeline"
	"dkip/internal/sample"
	"dkip/internal/sim"
)

// goldenPath is the differential golden every D-KIP and out-of-order record
// of grid-detailed must reproduce. It is the repository's own "same
// behaviour" contract, so an intended behaviour change updates that file,
// not the benchmark.
const goldenPath = "internal/experiments/testdata/differential.golden.json"

// goldenRecord is one entry of the differential golden.
type goldenRecord struct {
	Key     string          `json:"key"`
	Arch    string          `json:"arch"`
	Bench   string          `json:"bench"`
	Warmup  uint64          `json:"warmup"`
	Measure uint64          `json:"measure"`
	Stats   json.RawMessage `json:"stats"`
}

// loadGolden reads the differential golden, keyed by content key, with each
// record's stats in canonical form.
func loadGolden(path string) (map[string]goldenRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read differential golden: %w", err)
	}
	var recs []goldenRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("parse differential golden: %w", err)
	}
	out := make(map[string]goldenRecord, len(recs))
	for _, r := range recs {
		c, err := canonical(r.Stats)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", r.Key, err)
		}
		r.Stats = c
		out[r.Key] = r
	}
	return out, nil
}

// canonical re-encodes JSON with sorted object keys, so formatting never
// counts as a difference.
func canonical(raw []byte) ([]byte, error) {
	var v interface{}
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// checkGolden reports whether a record matches its golden entry by content
// key, identity fields and canonical stats. The configuration's display
// name is not compared: the content key excludes it, so two spellings of
// one machine (the default D-KIP is also Figure 10's OOO-40/MP-INO) share a
// golden entry.
func checkGolden(golden map[string]goldenRecord, key string, r *sim.Result) error {
	if r.Key != key {
		return fmt.Errorf("record key %s, spec key %s", r.Key, key)
	}
	w, ok := golden[key]
	if !ok {
		return fmt.Errorf("%s/%s: content key %s not in the differential golden", r.Config, r.Bench, key)
	}
	if r.Arch != w.Arch || r.Bench != w.Bench || r.Warmup != w.Warmup || r.Measure != w.Measure {
		return fmt.Errorf("%s: header %s/%s %d/%d, golden %s/%s %d/%d", key,
			r.Arch, r.Bench, r.Warmup, r.Measure, w.Arch, w.Bench, w.Warmup, w.Measure)
	}
	raw, err := json.Marshal(r.Stats)
	if err != nil {
		return err
	}
	got, err := canonical(raw)
	if err != nil {
		return err
	}
	if string(got) != string(w.Stats) {
		return fmt.Errorf("%s (%s/%s): stats differ from the differential golden", key, r.Config, r.Bench)
	}
	return nil
}

// digest hashes a record's simulated outcome: its stats and, for sampled
// runs, the sampling summary.
func digest(st *pipeline.Stats, sum *sample.Summary) string {
	raw, err := json.Marshal(struct {
		Stats   *pipeline.Stats `json:"stats"`
		Sampled *sample.Summary `json:"sampled,omitempty"`
	}{st, sum})
	if err != nil {
		// Both types are plain data; encoding cannot fail.
		panic(err)
	}
	h := sha256.Sum256(raw)
	return hex.EncodeToString(h[:16])
}

// pinnedDigests maps content keys to the digests of records no golden of
// the repository covers: the in-order grid and every sampled run.
// Regenerate with `perfbench -pin` from the repository root when a
// behaviour change is intended.
//
//go:embed testdata/digests.json
var pinnedDigests []byte

const pinPath = "perfbench/testdata/digests.json"

func loadPins() (map[string]string, error) {
	var pins map[string]string
	if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
		return nil, fmt.Errorf("parse pinned digests: %w", err)
	}
	return pins, nil
}

// checkPinned reports whether a record matches its pinned digest.
func checkPinned(pins map[string]string, key string, r *sim.Result) error {
	if r.Key != key {
		return fmt.Errorf("record key %s, spec key %s", r.Key, key)
	}
	want, ok := pins[key]
	if !ok {
		return fmt.Errorf("%s/%s: content key %s has no pinned digest", r.Config, r.Bench, key)
	}
	if got := digest(r.Stats, r.Sampled); got != want {
		return fmt.Errorf("%s (%s/%s): digest %s, pinned %s", key, r.Config, r.Bench, got, want)
	}
	return nil
}
