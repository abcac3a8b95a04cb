// Package sim is the run-orchestration layer under every experiment, command
// and benchmark in this repository.
//
// A simulation run is described by a RunSpec: which engine (by Arch — the
// out-of-order baseline family, the D-KIP, or the in-order calibration
// core), its full configuration, the workload, and the warmup/measure scale.
// Every engine's configuration implements engine.Config, so the layer reads
// a spec's machine through one contract: one switch picks the live
// configuration and one the constructor, and nothing else switches on the
// engine. A RunSpec has a deterministic content hash (Key), computed over
// the *normalized* configuration — presentation-only fields (Name) are
// excluded and paper defaults are applied first — so two specs describing
// the same machine on the same workload hash identically no matter how they
// were spelled.
//
// The Runner executes specs on a bounded worker pool with singleflight-style
// deduplication and an in-process memoizing cache keyed by that hash: the
// many overlapping sweeps of the paper's figures (the MEM-* baselines shared
// by the window and cache sweeps, the default D-KIP shared by Figure 9, the
// occupancy figures and most ablations) each simulate exactly once per
// process. Results are structured records with JSON and CSV encoders, the
// artifact format cmd/experiments -json emits.
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"dkip/internal/ckpt"
	"dkip/internal/core"
	"dkip/internal/engine"
	"dkip/internal/inorder"
	"dkip/internal/ooo"
	"dkip/internal/pipeline"
	"dkip/internal/sample"
	"dkip/internal/trace"
	"dkip/internal/workload"
)

// RunSpec is the canonical description of one simulation run. Exactly one of
// OOO/DKIP/Inorder is meaningful, selected by Arch.
type RunSpec struct {
	Arch Arch
	// OOO is the configuration when Arch == ArchOOO.
	OOO ooo.Config
	// DKIP is the configuration when Arch == ArchDKIP.
	DKIP core.Config
	// Inorder is the configuration when Arch == ArchInorder.
	Inorder inorder.Config
	// Bench names the workload (a registered synthetic SPEC2000 stand-in,
	// see internal/workload).
	Bench string
	// Warmup instructions run before measurement; Measure instructions
	// are measured.
	Warmup, Measure uint64
	// Tag is an extra hash discriminator. It is required to make a spec
	// memoizable when the configuration carries opaque function fields
	// (e.g. a custom NewPredictor), which the content hash cannot see:
	// distinct predictors must carry distinct tags.
	Tag string
	// Sample, when enabled, replaces the full detailed run with sampled
	// simulation (internal/sample): functional warming punctuated by
	// detailed measurement intervals, resumable through architectural
	// checkpoints stored next to results. The zero value means a full run,
	// and a disabled plan contributes nothing to Key, so pre-sampling specs
	// keep their content hashes (and warm stores stay warm).
	Sample sample.Plan
}

// OOOSpec builds a RunSpec for the out-of-order engine.
func OOOSpec(bench string, cfg ooo.Config, warmup, measure uint64) RunSpec {
	return RunSpec{Arch: ArchOOO, OOO: cfg, Bench: bench, Warmup: warmup, Measure: measure}
}

// DKIPSpec builds a RunSpec for the D-KIP engine.
func DKIPSpec(bench string, cfg core.Config, warmup, measure uint64) RunSpec {
	return RunSpec{Arch: ArchDKIP, DKIP: cfg, Bench: bench, Warmup: warmup, Measure: measure}
}

// InorderSpec builds a RunSpec for the in-order engine.
func InorderSpec(bench string, cfg inorder.Config, warmup, measure uint64) RunSpec {
	return RunSpec{Arch: ArchInorder, Inorder: cfg, Bench: bench, Warmup: warmup, Measure: measure}
}

// config returns the spec's live engine configuration, as given. An Arch
// outside the three engines selects the out-of-order one.
func (s RunSpec) config() engine.Config {
	switch s.Arch {
	case ArchDKIP:
		return s.DKIP
	case ArchInorder:
		return s.Inorder
	default:
		return s.OOO
	}
}

// ConfigName returns the configuration's display name (after defaults, so a
// zero D-KIP config reports the paper's "DKIP-2048").
func (s RunSpec) ConfigName() string {
	return s.config().Defaults().Params().Name
}

// Key returns the deterministic content hash identifying this run: engine,
// normalized configuration (minus presentation-only Name fields and opaque
// function fields), workload, scale, and tag. Two specs with equal Keys
// simulate identically; the Runner memoizes on it.
func (s RunSpec) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "arch=%s;bench=%s;warmup=%d;measure=%d;tag=%s;", s.Arch, s.Bench, s.Warmup, s.Measure, s.Tag)
	// The sampling plan is part of the machine description only when it is
	// in force, and always in completed form: a defaulted plan and its
	// explicit spelling are the same run, and full-run specs hash exactly
	// as they did before sampling existed.
	if p := s.SamplePlan(); p.Enabled() {
		fmt.Fprintf(h, "sample=%d/%d/%d;", p.Intervals, p.Interval, p.Warmup)
	}
	hashConfig(h, s.config().Defaults())
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// SamplePlan returns the spec's sampling plan with machine-aware defaults
// resolved: the per-interval detailed warmup scales with the machine's
// in-flight instruction capacity (ROB plus slow-lane queue for the
// out-of-order family, the LLIB for the D-KIP, the scoreboarded window for
// the in-order core) so that large-window machines are never measured
// mid-fill, and the interval length targets a 10× detailed-instruction
// reduction at the spec's scale. Key, Validate and SimulateSampled all go
// through this completion, so the hash always describes the plan that
// actually runs.
func (s RunSpec) SamplePlan() sample.Plan {
	if !s.Sample.Enabled() {
		return sample.Plan{}
	}
	return s.Sample.Complete(s.Warmup, s.Measure, s.config().Defaults().InFlight())
}

// checkpointKey returns the content key of the architectural checkpoint at
// stream position pos for this spec. The key hashes only what the
// checkpointed state is a function of — engine family (the D-KIP carries a
// confidence estimator the other cores lack), workload, memory
// configuration, predictor, tag, and position — never window or queue
// geometry, so every sweep point over e.g. window sizes shares one
// checkpoint set.
func (s RunSpec) checkpointKey(pos uint64) string {
	p := s.config().Defaults().Params()
	h := sha256.New()
	fmt.Fprintf(h, "ckpt;family=%s;bench=%s;tag=%s;pred=%s;pos=%d;", p.Family, s.Bench, s.Tag, p.NewPredictor().Name(), pos)
	hashConfig(h, p.Mem)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Memoizable reports whether the Key fully identifies the run. A spec whose
// raw configuration carries a non-nil function field (a custom predictor
// constructor) is opaque to the content hash and is only memoizable when a
// Tag distinguishes it.
func (s RunSpec) Memoizable() bool {
	return s.Tag != "" || s.Portable()
}

// Portable reports whether the spec survives serialization: a configuration
// carrying a non-nil function field (a custom predictor constructor) cannot
// travel over the wire even when a Tag makes it memoizable locally, so the
// serve layer refuses it rather than silently simulating a different
// machine.
func (s RunSpec) Portable() bool {
	return !hasOpaqueFields(s.config())
}

// Validate reports spec errors: unknown workload, empty scale, a run longer
// than engine.MaxRunInstrs, or an invalid engine configuration.
func (s RunSpec) Validate() error {
	if _, ok := workload.Lookup(s.Bench); !ok {
		return fmt.Errorf("sim: unknown benchmark %q", s.Bench)
	}
	if s.Measure == 0 {
		return fmt.Errorf("sim: spec for %q measures zero instructions", s.Bench)
	}
	// Checked without forming the sum, which could wrap.
	if s.Warmup > engine.MaxRunInstrs || s.Measure > engine.MaxRunInstrs-s.Warmup {
		return fmt.Errorf("sim: spec for %q runs %d warmup + %d measured instructions, over the limit of %d (engine.MaxRunInstrs)",
			s.Bench, s.Warmup, s.Measure, uint64(engine.MaxRunInstrs))
	}
	if err := s.SamplePlan().Validate(s.Measure); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := s.config().Defaults().Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// Label renders the spec for logs: "config/bench".
func (s RunSpec) Label() string {
	return s.ConfigName() + "/" + s.Bench
}

// NewEngine constructs the spec's machine behind the shared engine
// interface: cold caches, untrained predictor, ready to Run.
func (s RunSpec) NewEngine() sample.Engine {
	switch s.Arch {
	case ArchDKIP:
		return core.New(s.DKIP)
	case ArchInorder:
		return inorder.New(s.Inorder)
	default:
		return ooo.New(s.OOO)
	}
}

// Simulate builds the spec's processor and runs it over the given generator,
// warming the hierarchy with warm first (pass nil to skip). It is the
// low-level, uncached entry point: the Runner uses it with the spec's named
// workload, and cmd/dkipsim uses it directly for trace-driven runs whose
// source is not a registered benchmark. The spec's sampling plan is ignored
// here — sampled runs build their stream from the spec's benchmark and go
// through SimulateSampled.
func Simulate(s RunSpec, g trace.Generator, warm [][2]uint64) *pipeline.Stats {
	p := s.NewEngine()
	if warm != nil {
		p.Hierarchy().Warm(warm)
	}
	return p.Run(g, s.Warmup, s.Measure)
}

// ckptKind is the Store blob namespace architectural checkpoints live under.
const ckptKind = "checkpoints"

// SimulateSampled executes the spec under its sampling plan: functional
// warming to each interval start, a detailed measurement per interval, CPI
// confidence interval over the intervals. When store is non-nil and the spec
// is memoizable, checkpoints captured at interval starts are persisted under
// content keys (checkpointKey) and reloaded on later runs — including runs
// of different machines that share the memory/predictor configuration, and
// resumed runs of a killed sweep. The returned stats and summary are a pure
// function of the spec; only the IO counters depend on what the store held.
//
// Its detailed intervals run inline; a Runner's sampled runs overlap them
// with the functional walk when it has a CPU to lend (sample.Config.LendCPU).
func SimulateSampled(s RunSpec, store *Store) (*pipeline.Stats, *sample.Summary, sample.IO, error) {
	return simulateSampled(s, store, nil)
}

// simulateSampled is SimulateSampled with lend as the run's
// sample.Config.LendCPU.
func simulateSampled(s RunSpec, store *Store, lend func() func()) (*pipeline.Stats, *sample.Summary, sample.IO, error) {
	cfg, err := sampledConfig(s, store)
	if err != nil {
		return nil, nil, sample.IO{}, err
	}
	cfg.LendCPU = lend
	return sample.Run(cfg)
}

// sampledConfig returns the sample.Run configuration SimulateSampled runs.
func sampledConfig(s RunSpec, store *Store) (sample.Config, error) {
	g, err := workload.New(s.Bench)
	if err != nil {
		return sample.Config{}, err
	}
	cfg := sample.Config{
		Bench:     s.Bench,
		NewEngine: s.NewEngine,
		// sample.Run calls NewGen once, so the run builds one generator:
		// this one, which its tape reads.
		NewGen:     func() trace.Generator { return g },
		WarmRanges: g.WarmRanges(),
		Warmup:     s.Warmup,
		Measure:    s.Measure,
		Plan:       s.SamplePlan(),
	}
	if store != nil && s.Memoizable() {
		cfg.Load = func(pos uint64) *ckpt.Checkpoint {
			data, ok := store.GetBlob(ckptKind, s.checkpointKey(pos))
			if !ok {
				return nil
			}
			c, err := ckpt.Decode(data)
			// A checkpoint that decodes but does not describe this position
			// is a key collision or a corrupted store: treat as a miss and
			// recompute, exactly like result-store corruption.
			if err != nil || c.Pos != pos || c.Bench != s.Bench {
				return nil
			}
			return c
		}
		cfg.Store = func(c *ckpt.Checkpoint) {
			// A failed write is a cache non-event, same as Result writes.
			_ = store.PutBlob(ckptKind, s.checkpointKey(c.Pos), ckpt.Encode(c))
		}
	}
	return cfg, nil
}
