package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"dkip/internal/mem"
)

// sampleCheckpoint builds a fully-populated checkpoint: the caches of a
// small two-level hierarchy, predictor and confidence blobs.
func sampleCheckpoint() *Checkpoint {
	return sampleCheckpointOf(mem.Config{Name: "tiny", L1Size: 512, L1Latency: 1, L2Size: 1024, L2Latency: 10, MemLatency: 100})
}

// sampleCheckpointOf builds a checkpoint whose caches are those of a
// hierarchy of cfg after a strided walk over 8 lines, which leaves half of
// a 1 KiB L2's ways invalid.
func sampleCheckpointOf(cfg mem.Config) *Checkpoint {
	h := mem.NewHierarchy(cfg)
	for a := uint64(0); a < 1<<9; a += 48 {
		h.Access(a)
	}
	return &Checkpoint{
		Bench:    "mcf",
		Pos:      123456,
		Hier:     h.SaveState(),
		PredName: "perceptron",
		Pred:     []byte{1, 2, 3, 4, 5},
		Conf:     []byte{9, 8},
		Gen:      []byte{7, 6, 5},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for name, c := range map[string]*Checkpoint{
		"full":    sampleCheckpoint(),
		"no-conf": func() *Checkpoint { c := sampleCheckpoint(); c.Conf = nil; return c }(),
		"no-l2":   sampleCheckpointOf(mem.Config{Name: "l1-only", L1Size: 512, L1Latency: 1, MemLatency: 100}),
		"no-gen":  func() *Checkpoint { c := sampleCheckpoint(); c.Gen = nil; return c }(),
		"minimal": {Bench: "", PredName: "static", Pred: []byte{}},
	} {
		data := Encode(c)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(c, got) {
			t.Errorf("%s: round trip mismatch\nin:  %+v\nout: %+v", name, c, got)
		}
	}
}

// TestCodecDeterministic pins byte-determinism: identical checkpoints encode
// to identical bytes (content-keyed storage and the CI artifact diff both
// depend on it).
func TestCodecDeterministic(t *testing.T) {
	a, b := Encode(sampleCheckpoint()), Encode(sampleCheckpoint())
	if !bytes.Equal(a, b) {
		t.Error("two encodings of one checkpoint differ")
	}
}

// TestDecodeRejectsCorruption truncates the valid encoding at every length
// and flips the header fields: every case must return an error, never panic
// or silently succeed.
func TestDecodeRejectsCorruption(t *testing.T) {
	data := Encode(sampleCheckpoint())
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(data))
		}
	}
	if _, err := Decode(append(append([]byte{}, data...), 0)); err == nil {
		t.Error("trailing byte decoded cleanly")
	}
	bad := append([]byte{}, data...)
	copy(bad, "JUNK")
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic decoded cleanly")
	}
	bad = append([]byte{}, data...)
	binary.LittleEndian.PutUint32(bad[4:], ckptVersion+1)
	if _, err := Decode(bad); err == nil {
		t.Error("future version decoded cleanly")
	}
	// A hostile length prefix (bench length) must be rejected before any
	// allocation that size.
	bad = append([]byte{}, data...)
	binary.LittleEndian.PutUint32(bad[16:], maxSection+1)
	if _, err := Decode(bad); err == nil {
		t.Error("implausible section length decoded cleanly")
	}
}

// reseal replaces data's trailing checksum with the right one, so a test can
// reach the structure checks behind it.
func reseal(data []byte) []byte {
	body := len(data) - 4
	return binary.LittleEndian.AppendUint32(data[:body:body], crc32.Checksum(data[:body], crcTable))
}

// TestDecodeRejectsVersion1 pins the version bump: a blob of the previous
// layout is refused as an unsupported version, which the callers treat as
// a miss and overwrite.
func TestDecodeRejectsVersion1(t *testing.T) {
	data := Encode(sampleCheckpoint())
	binary.LittleEndian.PutUint32(data[4:], 1)
	_, err := Decode(data)
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("version-1 blob: err = %v, want unsupported version", err)
	}
}

// TestDecodeRejectsFlippedByte flips each byte of a valid encoding in turn:
// the checksum catches every one, the generator state's included.
func TestDecodeRejectsFlippedByte(t *testing.T) {
	data := Encode(sampleCheckpoint())
	for i := range data {
		bad := append([]byte{}, data...)
		bad[i] ^= 0x10
		if _, err := Decode(bad); err == nil {
			t.Errorf("flipping byte %d of %d decoded cleanly", i, len(data))
		}
	}
}

// TestDecodeRejectsBadFlags sets the confidence presence byte to a value
// Encode never writes: Decode accepts only the encoding Encode produces.
// The cache section's flag bytes are mem's to check, at restore.
func TestDecodeRejectsBadFlags(t *testing.T) {
	c := sampleCheckpoint()
	bad := Encode(c)
	bad[4+4+8+4+len(c.Bench)+4+len(c.PredName)+4+len(c.Pred)] = 2
	if _, err := Decode(reseal(bad)); err == nil {
		t.Error("confidence presence byte 2 decoded cleanly")
	}
}
