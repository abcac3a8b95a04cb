package ckpt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"dkip/internal/ckpt"
	"dkip/internal/core"
	"dkip/internal/inorder"
	"dkip/internal/mem"
	"dkip/internal/ooo"
	"dkip/internal/predictor"
	"dkip/internal/sim"
	"dkip/internal/workload"
)

// smallFamilies returns a spec of each engine family (D-KIP, out of order,
// in order) with small caches and predictors, so their checkpoints stay a
// few kilobytes.
func smallFamilies() []sim.RunSpec {
	small := mem.Config{Name: "fuzz", L1Size: 512, L1Latency: 1, L2Size: 2048, L2Latency: 10, MemLatency: 100}
	pred := func() predictor.Predictor { return predictor.NewPerceptron(8, 4) }
	oooCfg, inorderCfg := ooo.R10K64(), inorder.C920()
	oooCfg.Mem, oooCfg.NewPredictor = small, pred
	inorderCfg.Mem, inorderCfg.NewPredictor = small, pred
	return []sim.RunSpec{
		sim.DKIPSpec("mcf", core.Config{Mem: small, NewPredictor: pred}, 0, 1000),
		sim.OOOSpec("swim", oooCfg, 0, 1000),
		sim.InorderSpec("gcc", inorderCfg, 0, 1000),
	}
}

// capture warms a fresh engine of spec over the first 3000 instructions of
// its workload and captures a checkpoint there, without generator state. It
// returns the generator, which stands at that position.
func capture(tb testing.TB, spec sim.RunSpec) (*ckpt.Checkpoint, *workload.Benchmark) {
	tb.Helper()
	e := spec.NewEngine()
	g := workload.MustNew(spec.Bench)
	e.Hierarchy().Warm(g.WarmRanges())
	e.WarmFunctional(g, 3000)
	c, err := e.CaptureArch(spec.Bench, 3000)
	if err != nil {
		tb.Fatal(err)
	}
	return c, g
}

// FuzzDecode drives Decode over arbitrary bytes, each input also resealed
// with the checksum it would need, so the fuzzer reaches the structure
// checks behind the trailer. Invariants: Decode never panics, and what it
// accepts is exactly what Encode writes — re-encoding reproduces the input.
// Seeds are checkpoints captured from an engine of each family (D-KIP, out
// of order, in order), with and without generator state. Their caches and
// predictors are small, so the seeds stay a few kilobytes. Decode leaves
// the cache section to mem, whose FuzzHierarchyState fuzzes it.
func FuzzDecode(f *testing.F) {
	add := func(c *ckpt.Checkpoint) {
		data := ckpt.Encode(c)
		if _, err := ckpt.Decode(data); err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, spec := range smallFamilies() {
		c, g := capture(f, spec)
		add(c)
		var err error
		if c.Gen, err = g.SaveState(); err != nil {
			f.Fatal(err)
		}
		add(c)
	}
	f.Add([]byte("DKCP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) >= 4 {
			check(t, resealed(data))
		}
	})
}

// checkpointPins pins the SHA-256 of the encoded checkpoint each paper
// machine family captures at pinnedPos: every section of it, caches
// included, byte for byte. A change to how any section is laid out, or to
// what warming leaves in it, fails here before it reaches a store.
var checkpointPins = map[string]string{
	"dkip":    "097592683c68ec4751f4021ec6f24050e8443c32b318c619a598b9baa2846e10",
	"r10-64":  "2e4f9ed5804ca2665e57005c82ee2f9c8621a1ae12bde10e0952da815edbcf64",
	"inorder": "81189f10e5488cef7aa24f16ed480d23b9d2c739086c14295ab3a4fd405b82e6",
}

const pinnedPos = 20_000

func TestCheckpointBytesPinned(t *testing.T) {
	for _, run := range []struct{ preset, bench string }{
		{"dkip", "mcf"},    // DKIP-2048
		{"r10-64", "swim"}, // R10-64
		{"inorder", "gcc"}, // C920
	} {
		spec := sim.MustPresetSpec(run.preset, run.bench, 0, 0)
		e := spec.NewEngine()
		g := workload.MustNew(run.bench)
		e.Hierarchy().Warm(g.WarmRanges())
		e.WarmFunctional(g, pinnedPos)
		c, err := e.CaptureArch(run.bench, pinnedPos)
		if err != nil {
			t.Fatal(err)
		}
		if c.Gen, err = g.SaveState(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(ckpt.Encode(c))
		if got := hex.EncodeToString(sum[:]); got != checkpointPins[run.preset] {
			t.Errorf("%s on %s: checkpoint at %d hashes to %s, pinned %s", run.preset, run.bench, pinnedPos, got, checkpointPins[run.preset])
		}
	}
}

func check(t *testing.T, data []byte) {
	c, err := ckpt.Decode(data)
	if err != nil {
		return
	}
	again := ckpt.Encode(c)
	if !bytes.Equal(again, data) {
		t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(data), len(again))
	}
	c2, err := ckpt.Decode(again)
	if err != nil || !reflect.DeepEqual(c, c2) {
		t.Fatalf("re-encoded checkpoint does not decode to itself: %v", err)
	}
}
