package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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

// FuzzDecode drives Decode over arbitrary bytes, each input also resealed
// with the checksum it would need, so the fuzzer reaches the structure
// checks behind the trailer. Invariants: Decode never panics, and what it
// accepts is exactly what Encode writes — re-encoding reproduces the input.
// Seeds are checkpoints captured from an engine of each family (D-KIP, out
// of order, in order), with and without generator state. Their caches and
// predictors are small, so the seeds stay a few kilobytes.
func FuzzDecode(f *testing.F) {
	add := func(c *ckpt.Checkpoint) {
		data := ckpt.Encode(c)
		if _, err := ckpt.Decode(data); err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	small := mem.Config{Name: "fuzz", L1Size: 512, L1Latency: 1, L2Size: 2048, L2Latency: 10, MemLatency: 100}
	pred := func() predictor.Predictor { return predictor.NewPerceptron(8, 4) }
	oooCfg, inorderCfg := ooo.R10K64(), inorder.C920()
	oooCfg.Mem, oooCfg.NewPredictor = small, pred
	inorderCfg.Mem, inorderCfg.NewPredictor = small, pred
	for _, spec := range []sim.RunSpec{
		sim.DKIPSpec("mcf", core.Config{Mem: small, NewPredictor: pred}, 0, 1000),
		sim.OOOSpec("swim", oooCfg, 0, 1000),
		sim.InorderSpec("gcc", inorderCfg, 0, 1000),
	} {
		e := spec.NewEngine()
		g := workload.MustNew(spec.Bench)
		e.Hierarchy().Warm(g.WarmRanges())
		e.WarmFunctional(g, 3000)
		c, err := e.CaptureArch(spec.Bench, 3000)
		if err != nil {
			f.Fatal(err)
		}
		add(c)
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
			body := len(data) - 4
			check(t, binary.LittleEndian.AppendUint32(data[:body:body], crc32.Checksum(data[:body], crc32.MakeTable(crc32.Castagnoli))))
		}
	})
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
