package main

import (
	"fmt"

	"dkip/internal/core"
	"dkip/internal/inorder"
	"dkip/internal/kilo"
	"dkip/internal/ooo"
	"dkip/internal/sample"
	"dkip/internal/sim"
	"dkip/internal/workload"
	"dkip/internal/xrand"
)

// Scales. quick is the experiments' QuickScale, at which the differential
// golden was recorded; sampled is the scale TestSampledAccuracy states its
// error bound at; daemon specs are small, so a fresh one costs milliseconds.
const (
	quickWarmup, quickMeasure     = 10_000, 40_000
	sampledWarmup, sampledMeasure = 10_000, 1_000_000
	daemonWarmup, daemonMeasure   = 2_000, 8_000
)

// machine builds one named configuration's spec for a benchmark.
type machine struct {
	name string
	mk   func(bench string, warmup, measure uint64) sim.RunSpec
}

// fig9Machines are the Figure 9 machines, in the order the paper plots them.
var fig9Machines = []machine{
	{"r10-64", func(b string, w, m uint64) sim.RunSpec { return sim.OOOSpec(b, ooo.R10K64(), w, m) }},
	{"r10-256", func(b string, w, m uint64) sim.RunSpec { return sim.OOOSpec(b, ooo.R10K256(), w, m) }},
	{"kilo", func(b string, w, m uint64) sim.RunSpec { return sim.OOOSpec(b, kilo.Config1024(), w, m) }},
	{"dkip", func(b string, w, m uint64) sim.RunSpec { return sim.DKIPSpec(b, core.Config{}, w, m) }},
}

var inorderMachine = machine{"inorder", func(b string, w, m uint64) sim.RunSpec {
	return sim.InorderSpec(b, inorder.C920(), w, m)
}}

// fig10Machines are the Figure 10 scheduler variants: Cache Processor
// in-order or out-of-order with 20–80 entry queues, crossed with Memory
// Processor in-order or out-of-order with 20–40 entry queues.
func fig10Machines() []core.Config {
	type point struct {
		label   string
		inOrder bool
		size    int
	}
	cp := []point{{"INO", true, 40}, {"OOO-20", false, 20}, {"OOO-40", false, 40}, {"OOO-60", false, 60}, {"OOO-80", false, 80}}
	mp := []point{{"MP-INO", true, 20}, {"MP-OOO-20", false, 20}, {"MP-OOO-40", false, 40}}
	var out []core.Config
	for _, c := range cp {
		for _, m := range mp {
			out = append(out, core.Config{
				Name:      fmt.Sprintf("%s/%s", c.label, m.label),
				CPInOrder: c.inOrder, CPIQSize: c.size,
				MPInOrder: core.Bool(m.inOrder), MPIQSize: m.size,
			})
		}
	}
	return out
}

// gridBatches returns grid-detailed's specs as one batch per architecture:
// the specs of the differential golden (the Figure 9 grid and the Figure 10
// variants on swim and applu) plus the in-order core on every benchmark.
// Each content key runs once. The golden's 134 specs hold 132 keys, because
// Figure 10's OOO-40/MP-INO is the default D-KIP; an uncached Runner
// coalesces two runs of one key only when they overlap in time, so running
// both would make how much a pass simulates depend on the scheduler.
func gridBatches() []batch {
	var dkip, oooB, ino []sim.RunSpec
	seen := map[string]bool{}
	add := func(dst *[]sim.RunSpec, s sim.RunSpec) {
		if k := s.Key(); !seen[k] {
			seen[k] = true
			*dst = append(*dst, s)
		}
	}
	for _, m := range fig9Machines {
		for _, b := range workload.Names() {
			s := m.mk(b, quickWarmup, quickMeasure)
			if s.Arch == sim.ArchDKIP {
				add(&dkip, s)
			} else {
				add(&oooB, s)
			}
		}
	}
	for _, cfg := range fig10Machines() {
		for _, b := range []string{"swim", "applu"} {
			add(&dkip, sim.DKIPSpec(b, cfg, quickWarmup, quickMeasure))
		}
	}
	for _, b := range workload.Names() {
		ino = append(ino, inorderMachine.mk(b, quickWarmup, quickMeasure))
	}
	return []batch{{"dkip", dkip}, {"ooo", oooB}, {"inorder", ino}}
}

// sampledBenches are the benchmarks of sampled-ckpt, drawn from the ones
// the sampling accuracy bound is documented against: a cache-resident
// integer code and memory-bound integer and floating-point codes. Three
// keep a pass to a few seconds, so a run's figures are medians of several
// passes.
var sampledBenches = []string{"crafty", "mcf", "swim"}

// sampledBatches returns sampled-ckpt's specs: the Figure 9 machines and the
// in-order core on sampledBenches under the default sampling plan. The
// first batch holds the first machine of each checkpoint family (D-KIP,
// R10-64 for the out-of-order family, the in-order core, whose memory
// configuration gives it checkpoints of its own); the second holds the
// out-of-order machines that reuse R10-64's checkpoints. Running the second
// only after the first completes makes the checkpoint traffic the same on
// every run.
func sampledBatches() []batch {
	first := []machine{fig9Machines[3], fig9Machines[0], inorderMachine}
	second := []machine{fig9Machines[1], fig9Machines[2]}
	mk := func(ms []machine) []sim.RunSpec {
		var out []sim.RunSpec
		for _, b := range sampledBenches {
			for _, m := range ms {
				s := m.mk(b, sampledWarmup, sampledMeasure)
				s.Sample = sample.DefaultPlan()
				out = append(out, s)
			}
		}
		return out
	}
	return []batch{{"first-of-family", mk(first)}, {"reusing", mk(second)}}
}

// daemonPool returns the specs daemon-mixed draws its requests from.
func daemonPool() []sim.RunSpec {
	var out []sim.RunSpec
	for _, name := range []string{"dkip", "r10-64", "inorder"} {
		for _, b := range workload.Names() {
			out = append(out, sim.MustPresetSpec(name, b, daemonWarmup, daemonMeasure))
		}
	}
	return out
}

// batch is a set of specs submitted together; the next batch starts only
// after every run of this one has returned.
type batch struct {
	name  string
	specs []sim.RunSpec
}

// shuffle permutes every batch with the workload seed: the seed decides the
// order in which specs enter a batch, and the program sees only the specs.
func shuffle(batches []batch, seed uint64) {
	r := xrand.New(seed)
	for _, b := range batches {
		for i := len(b.specs) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			b.specs[i], b.specs[j] = b.specs[j], b.specs[i]
		}
	}
}
