package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"dkip/internal/mem"
)

// Binary checkpoint format, version 2. Everything is little-endian:
//
//	header:  magic "DKCP" | version u32 | pos u64
//	strings: bench (u32 len + bytes) | predictor name (u32 len + bytes)
//	blobs:   predictor state (u32 len + bytes)
//	         confidence state (presence u8, then u32 len + bytes when 1)
//	         generator state (u32 len + bytes; length 0 when absent)
//	caches:  L1 then L2, each: presence u8, then
//	         size u32 | line u32 | assoc u32 | clock u64 | ways u32 |
//	         tags ways×u64 | valid ways×u8 | lru ways×u64
//	trailer: CRC-32C (Castagnoli) of every preceding byte, u32
//
// Version 2 added the generator state and the trailer. The format is
// self-describing enough for Decode to fail loudly on truncation,
// corruption, or a version it does not speak — the store may hold
// checkpoints written by an older binary, which then count as misses.
const (
	ckptMagic   = "DKCP"
	ckptVersion = 2

	// maxSection caps any single length prefix; a corrupt header must not
	// drive a multi-gigabyte allocation.
	maxSection = 1 << 28
	// wayBytes is the encoded size of one cache way: tag, valid, LRU.
	wayBytes = 8 + 1 + 8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes a checkpoint.
func Encode(c *Checkpoint) []byte {
	b := make([]byte, 0, encodedSize(c))
	b = append(b, ckptMagic...)
	b = binary.LittleEndian.AppendUint32(b, ckptVersion)
	b = binary.LittleEndian.AppendUint64(b, c.Pos)
	b = appendBytes(b, []byte(c.Bench))
	b = appendBytes(b, []byte(c.PredName))
	b = appendBytes(b, c.Pred)
	if c.Conf != nil {
		b = append(b, 1)
		b = appendBytes(b, c.Conf)
	} else {
		b = append(b, 0)
	}
	b = appendBytes(b, c.Gen)
	b = appendCache(b, c.Hier.L1)
	b = appendCache(b, c.Hier.L2)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

func encodedSize(c *Checkpoint) int {
	n := 4 + 4 + 8 + 4 + len(c.Bench) + 4 + len(c.PredName) + 4 + len(c.Pred) + 1 + 4 + len(c.Conf) + 4 + len(c.Gen) + 2 + 4
	for _, cs := range []*mem.CacheState{c.Hier.L1, c.Hier.L2} {
		if cs != nil {
			n += 4*4 + 8 + len(cs.Tags)*wayBytes
		}
	}
	return n
}

func appendBytes(b, data []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
	return append(b, data...)
}

func appendCache(b []byte, cs *mem.CacheState) []byte {
	if cs == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(cs.Size))
	b = binary.LittleEndian.AppendUint32(b, uint32(cs.Line))
	b = binary.LittleEndian.AppendUint32(b, uint32(cs.Assoc))
	b = binary.LittleEndian.AppendUint64(b, cs.Clock)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cs.Tags)))
	for _, t := range cs.Tags {
		b = binary.LittleEndian.AppendUint64(b, t)
	}
	for _, v := range cs.Valid {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for _, l := range cs.LRU {
		b = binary.LittleEndian.AppendUint64(b, l)
	}
	return b
}

type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) fail(format string, args ...interface{}) error {
	return fmt.Errorf("ckpt: "+format, args...)
}

func (d *decoder) need(n int) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.data) {
		return nil, d.fail("truncated at byte %d (need %d of %d)", d.pos, n, len(d.data))
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *decoder) u8() (byte, error) {
	b, err := d.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// flag reads a presence byte, which Encode writes as 0 or 1 only.
func (d *decoder) flag() (bool, error) {
	v, err := d.u8()
	if err == nil && v > 1 {
		err = d.fail("flag byte %d at byte %d", v, d.pos-1)
	}
	return v == 1, err
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) blob() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if n > maxSection {
		return nil, d.fail("implausible section length %d", n)
	}
	b, err := d.need(int(n))
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

func (d *decoder) cache() (*mem.CacheState, error) {
	present, err := d.flag()
	if err != nil || !present {
		return nil, err
	}
	size, err := d.u32()
	if err != nil {
		return nil, err
	}
	line, err := d.u32()
	if err != nil {
		return nil, err
	}
	assoc, err := d.u32()
	if err != nil {
		return nil, err
	}
	clock, err := d.u64()
	if err != nil {
		return nil, err
	}
	ways, err := d.u32()
	if err != nil {
		return nil, err
	}
	// The ways must be there before they are allocated: a corrupt count
	// must not drive an allocation the input cannot back.
	if int64(ways)*wayBytes > int64(len(d.data)-d.pos) {
		return nil, d.fail("truncated at byte %d (%d cache ways need %d bytes, %d remain)",
			d.pos, ways, int64(ways)*wayBytes, len(d.data)-d.pos)
	}
	if size > math.MaxInt32 || line > math.MaxInt32 || assoc > math.MaxInt32 {
		return nil, d.fail("implausible cache geometry %d/%d/%d", size, line, assoc)
	}
	cs := &mem.CacheState{
		Size:  int(size),
		Line:  int(line),
		Assoc: int(assoc),
		Clock: clock,
		Tags:  make([]uint64, ways),
		Valid: make([]bool, ways),
		LRU:   make([]uint64, ways),
	}
	for i := range cs.Tags {
		if cs.Tags[i], err = d.u64(); err != nil {
			return nil, err
		}
	}
	for i := range cs.Valid {
		if cs.Valid[i], err = d.flag(); err != nil {
			return nil, err
		}
	}
	for i := range cs.LRU {
		if cs.LRU[i], err = d.u64(); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// Decode deserializes a checkpoint written by Encode. It validates magic,
// version, checksum, and internal structure, but not that the state fits
// any particular engine or generator — restore does that.
func Decode(data []byte) (*Checkpoint, error) {
	d := &decoder{data: data}
	magic, err := d.need(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != ckptMagic {
		return nil, d.fail("bad magic %q", magic)
	}
	version, err := d.u32()
	if err != nil {
		return nil, err
	}
	if version != ckptVersion {
		return nil, d.fail("unsupported version %d (speak %d)", version, ckptVersion)
	}
	if len(data) < d.pos+4 {
		return nil, d.fail("truncated at byte %d (no checksum)", len(data))
	}
	body := len(data) - 4
	if sum, want := crc32.Checksum(data[:body], crcTable), binary.LittleEndian.Uint32(data[body:]); sum != want {
		return nil, d.fail("checksum %08x does not match stored %08x", sum, want)
	}
	d.data = data[:body]
	c := &Checkpoint{}
	if c.Pos, err = d.u64(); err != nil {
		return nil, err
	}
	bench, err := d.blob()
	if err != nil {
		return nil, err
	}
	c.Bench = string(bench)
	name, err := d.blob()
	if err != nil {
		return nil, err
	}
	c.PredName = string(name)
	if c.Pred, err = d.blob(); err != nil {
		return nil, err
	}
	present, err := d.flag()
	if err != nil {
		return nil, err
	}
	if present {
		if c.Conf, err = d.blob(); err != nil {
			return nil, err
		}
	}
	if c.Gen, err = d.blob(); err != nil {
		return nil, err
	}
	if len(c.Gen) == 0 {
		c.Gen = nil
	}
	if c.Hier.L1, err = d.cache(); err != nil {
		return nil, err
	}
	if c.Hier.L2, err = d.cache(); err != nil {
		return nil, err
	}
	if d.pos != len(d.data) {
		return nil, d.fail("%d trailing bytes", len(d.data)-d.pos)
	}
	return c, nil
}
