package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dkip/internal/mem"
)

// sampleCheckpoint builds a fully-populated checkpoint: both cache levels,
// predictor and confidence blobs.
func sampleCheckpoint() *Checkpoint {
	mk := func(ways int, seed uint64) *mem.CacheState {
		cs := &mem.CacheState{
			Size: 32 * 1024, Line: 64, Assoc: 4, Clock: 99 + seed,
			Tags:  make([]uint64, ways),
			Valid: make([]bool, ways),
			LRU:   make([]uint64, ways),
		}
		for i := range cs.Tags {
			cs.Tags[i] = seed + uint64(i)*3
			cs.Valid[i] = i%2 == 0
			cs.LRU[i] = seed ^ uint64(i)
		}
		return cs
	}
	return &Checkpoint{
		Bench:    "mcf",
		Pos:      123456,
		Hier:     mem.HierarchyState{L1: mk(8, 7), L2: mk(16, 11)},
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
		"no-l2":   func() *Checkpoint { c := sampleCheckpoint(); c.Hier.L2 = nil; return c }(),
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

// TestDecodeBoundsAllocation feeds a blob whose L1 section claims
// maxSection/wayBytes ways and then ends, under a valid checksum: Decode
// must refuse it before it allocates for the ways the input cannot hold.
func TestDecodeBoundsAllocation(t *testing.T) {
	b := append([]byte(ckptMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[4:], ckptVersion)
	b = binary.LittleEndian.AppendUint64(b, 0)           // pos
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // bench, predictor name and state; no conf
	b = append(b, 0, 0, 0, 0)                            // no generator state
	b = append(b, 1)                                     // L1 present
	for _, v := range []uint32{32 << 10, 64, 4} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, maxSection/wayBytes)
	b = reseal(append(b, 0, 0, 0, 0))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a blob claiming more cache ways than it holds decoded cleanly")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("Decode allocated %d bytes before refusing a %d-byte blob", got, len(b))
	}
}

// TestDecodeRejectsBadFlags sets presence and valid bytes to values Encode
// never writes: Decode accepts only the encoding Encode produces.
func TestDecodeRejectsBadFlags(t *testing.T) {
	c := sampleCheckpoint()
	data := Encode(c)
	conf := 4 + 4 + 8 + 4 + len(c.Bench) + 4 + len(c.PredName) + 4 + len(c.Pred)
	l1 := conf + 1 + 4 + len(c.Conf) + 4 + len(c.Gen)
	valid := l1 + 1 + 4*4 + 8 + 8*len(c.Hier.L1.Tags)
	for _, off := range []int{conf, l1, valid} {
		bad := append([]byte{}, data...)
		bad[off] = 2
		if _, err := Decode(reseal(bad)); err == nil {
			t.Errorf("flag byte 2 at offset %d decoded cleanly", off)
		}
	}
}
