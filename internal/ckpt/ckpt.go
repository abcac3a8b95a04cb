// Package ckpt defines architectural checkpoints for sampled simulation: a
// serializable snapshot of the state that functional warmup establishes —
// cache contents, branch-predictor tables, the confidence estimator — plus
// the stream position and, when the generator can save it, the generator's
// own state there: everything a detailed measurement interval needs to
// start as if the whole stream prefix had been simulated, without replaying
// it, and without regenerating it either.
//
// Checkpoints are deliberately microarchitecture-free: no pipeline, window,
// or queue state is captured, because sampled intervals re-fill those
// structures during their detailed-warmup instructions (see internal/sample).
// That is what lets machines that differ only in window or queue geometry
// share checkpoints: the snapshot is a pure function of (workload prefix,
// memory configuration, predictor configuration).
//
// The binary codec (Encode/Decode) is versioned, checksummed and exact —
// every field is an integer or an opaque byte string, so a restored engine
// replays bit-for-bit identically to one warmed in place. That exactness is
// what the CI checkpoint-determinism gate relies on: resuming a killed sweep
// from stored checkpoints must reproduce the from-cold artifact byte for
// byte.
package ckpt

import (
	"dkip/internal/isa"
	"dkip/internal/mem"
	"dkip/internal/predictor"
)

// Checkpoint is the architectural state at a stream position.
type Checkpoint struct {
	// Bench names the workload whose stream Pos indexes into. Restore does
	// not interpret it; it travels with the snapshot so mismatched reuse is
	// detectable.
	Bench string
	// Pos is the stream position: the number of instructions consumed from
	// the start of the stream. Gen, when present, resumes the stream there;
	// without it the suffix is reached by regenerating the Pos instructions
	// before it, which deterministic generators make exact but not cheap.
	Pos uint64
	// Hier is the cache contents (tags, valid bits, LRU clocks).
	Hier mem.HierarchyState
	// PredName identifies the predictor the Pred snapshot came from, as a
	// guard against restoring e.g. gshare state into a perceptron.
	PredName string
	// Pred is the predictor's Stateful snapshot.
	Pred []byte
	// Conf is the confidence estimator's snapshot, or nil when the engine
	// family has no estimator (the out-of-order baselines).
	Conf []byte
	// Gen is the workload generator's own snapshot at Pos (for instance
	// workload.Benchmark.SaveState), or nil when the generator that
	// produced the stream could not save one. It leads with a fingerprint
	// of the workload it came from, and only that workload's generator
	// loads it. Engines neither read nor write it; internal/sample does.
	Gen []byte
}

// WarmFunctional advances the architectural state by the instructions of
// stream, in order, without simulating any pipeline: loads and stores walk
// the cache hierarchy, branches train the predictor (and confidence
// estimator, when present), everything else is skipped. The predictor sees
// exactly the Predict/Update sequence the detailed fetch stages issue, so
// functionally warmed state is indistinguishable from detailed-run state.
func WarmFunctional(h *mem.Hierarchy, bp predictor.Predictor, conf *predictor.Confidence, stream []isa.Instr) {
	for i := range stream {
		in := &stream[i]
		switch in.Op {
		case isa.Load, isa.Store:
			h.Access(in.Addr)
		case isa.Branch:
			pred := bp.Predict(in.PC)
			bp.Update(in.PC, in.Taken)
			if conf != nil {
				conf.Update(in.PC, pred == in.Taken)
			}
		}
	}
}
