package sim

import (
	"encoding/json"
	"io"
	"time"

	"dkip/internal/pipeline"
	"dkip/internal/sample"
)

// Result is the structured record of one simulation run.
type Result struct {
	// Key is the RunSpec content hash the memo cache is keyed by; empty
	// for uncacheable runs (opaque untagged configs, raw traces) whose
	// hash would not fully identify the machine.
	Key string `json:"key,omitempty"`
	// Arch and Config identify the machine; Bench the workload.
	Arch   string `json:"arch"`
	Config string `json:"config"`
	Bench  string `json:"bench"`
	// Warmup/Measure echo the spec's scale.
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	// Cached reports whether this record was served from a cache tier
	// (memo cache or persistent store) rather than freshly simulated.
	Cached bool `json:"cached"`
	// Skipped reports a placeholder produced for a spec outside the
	// Runner's shard (WithShard) that no cache tier could serve: the
	// identity fields are real, Stats is all zeros.
	Skipped bool `json:"skipped,omitempty"`
	// Elapsed is the wall time of the underlying simulation.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Stats is the full simulator outcome. For sampled runs it aggregates
	// the detailed measurement intervals (counters summed, high-water
	// marks maxed).
	Stats *pipeline.Stats `json:"stats"`
	// Sampled describes the sampling layout and the CPI confidence
	// interval for runs executed under a sampling plan; nil for full runs.
	Sampled *sample.Summary `json:"sampled,omitempty"`
}

// clone returns a deep copy (Stats and Summary have no reference fields, so
// value copies suffice) with Cached set as given.
func (r *Result) clone(cached bool) *Result {
	out := *r
	if r.Stats != nil {
		st := *r.Stats
		out.Stats = &st
	}
	if r.Sampled != nil {
		sm := *r.Sampled
		out.Sampled = &sm
	}
	out.Cached = cached
	return &out
}

// WithCached returns a deep copy of the record with Cached set as given —
// how the serve layer marks store-served records without mutating a shared
// result.
func (r *Result) WithCached(cached bool) *Result { return r.clone(cached) }

// IPC is a convenience accessor for the headline metric.
func (r *Result) IPC() float64 {
	if r.Stats == nil {
		return 0
	}
	return r.Stats.IPC()
}

// WriteJSON writes the results as an indented JSON array.
func WriteJSON(w io.Writer, results []*Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
