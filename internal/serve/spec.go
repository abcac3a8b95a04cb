// Package serve exposes the run-orchestration layer (internal/sim) over
// HTTP: a Server wrapping one process-wide sim.Runner + sim.Store that many
// clients hit concurrently, a Client that is the transport to one such
// daemon, and a Pool, the sim.Backend federating a fleet of daemons
// (content-key rendezvous routing, chunked retrying submissions, health
// tracking, local failover). cmd/dkipd is the daemon binary; cmd/experiments
// -remote drives the whole experiment registry through a Pool seeded with
// its URL list, one URL or several.
//
// The wire protocol (all JSON):
//
//	POST /v1/runs            submit one Spec or {"specs": [...]}; blocks
//	                         until every run resolves, identical in-flight
//	                         submissions from different clients join the
//	                         same singleflight simulation; bodies over the
//	                         16 MiB limit answer 413
//	GET  /v1/runs/{key}      fetch one Result by content key; 404 on miss
//	                         unless ?wait=1 subscribes until it resolves
//	GET  /v1/results         stream the store manifest as NDJSON,
//	                         ?arch= and ?bench= filter
//	GET  /v1/metrics         runner Metrics + store stats
//	GET  /v1/healthz         liveness probe: constant-work 200, never
//	                         touches the runner or store
package serve

import (
	"fmt"
	"strings"

	"dkip/internal/core"
	"dkip/internal/inorder"
	"dkip/internal/ooo"
	"dkip/internal/sample"
	"dkip/internal/sim"
)

// Spec is the wire form of a sim.RunSpec: the engine selector as a string
// and at most one configuration payload matching it (an absent payload means
// the engine's zero configuration, i.e. the paper defaults). Function-typed
// configuration fields never travel — they are excluded from the JSON
// encoding just as the content hash skips them — so only Portable specs can
// be encoded, and every decoded spec is memoizable.
type Spec struct {
	Arch    string          `json:"arch"`
	Bench   string          `json:"bench"`
	Warmup  uint64          `json:"warmup"`
	Measure uint64          `json:"measure"`
	Tag     string          `json:"tag,omitempty"`
	OOO     *ooo.Config     `json:"ooo,omitempty"`
	DKIP    *core.Config    `json:"dkip,omitempty"`
	Inorder *inorder.Config `json:"inorder,omitempty"`
	// Sample carries the sampling plan when the run is sampled; absent for
	// full runs, so pre-sampling clients and daemons interoperate.
	Sample *sample.Plan `json:"sample,omitempty"`
}

// EncodeSpec converts a sim.RunSpec to its wire form. Specs carrying opaque
// function fields (custom predictor constructors) are refused: serializing
// one would silently simulate a different machine on the daemon.
func EncodeSpec(s sim.RunSpec) (Spec, error) {
	if !s.Portable() {
		return Spec{}, fmt.Errorf("serve: spec %s carries opaque function fields and cannot run remotely", s.Label())
	}
	w := Spec{Arch: s.Arch.String(), Bench: s.Bench, Warmup: s.Warmup, Measure: s.Measure, Tag: s.Tag}
	if s.Sample.Enabled() {
		p := s.Sample
		w.Sample = &p
	}
	switch s.Arch {
	case sim.ArchOOO:
		cfg := s.OOO
		w.OOO = &cfg
	case sim.ArchDKIP:
		cfg := s.DKIP
		w.DKIP = &cfg
	case sim.ArchInorder:
		cfg := s.Inorder
		w.Inorder = &cfg
	default:
		return Spec{}, fmt.Errorf("serve: unknown architecture %q", s.Arch)
	}
	return w, nil
}

// RunSpec converts the wire form back to a sim.RunSpec. It only shapes the
// spec; semantic validation (unknown benchmark, zero scale, invalid
// configuration) stays with sim.RunSpec.Validate, which the Server applies
// to every submission.
func (w Spec) RunSpec() (sim.RunSpec, error) {
	s := sim.RunSpec{Bench: w.Bench, Warmup: w.Warmup, Measure: w.Measure, Tag: w.Tag}
	if w.Sample != nil {
		s.Sample = *w.Sample
	}
	switch w.Arch {
	case sim.ArchOOO.String():
		s.Arch = sim.ArchOOO
		if w.DKIP != nil || w.Inorder != nil {
			return sim.RunSpec{}, fmt.Errorf("serve: ooo spec carries a foreign config payload")
		}
		if w.OOO != nil {
			s.OOO = *w.OOO
		}
	case sim.ArchDKIP.String():
		s.Arch = sim.ArchDKIP
		if w.OOO != nil || w.Inorder != nil {
			return sim.RunSpec{}, fmt.Errorf("serve: dkip spec carries a foreign config payload")
		}
		if w.DKIP != nil {
			s.DKIP = *w.DKIP
		}
	case sim.ArchInorder.String():
		s.Arch = sim.ArchInorder
		if w.OOO != nil || w.DKIP != nil {
			return sim.RunSpec{}, fmt.Errorf("serve: inorder spec carries a foreign config payload")
		}
		if w.Inorder != nil {
			s.Inorder = *w.Inorder
		}
	default:
		return sim.RunSpec{}, fmt.Errorf("serve: unknown architecture %q (registered: %s)",
			w.Arch, strings.Join(sim.ArchNames(), ", "))
	}
	return s, nil
}
