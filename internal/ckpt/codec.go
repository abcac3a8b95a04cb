package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"dkip/internal/binread"
)

// Binary checkpoint format, version 2. Everything is little-endian:
//
//	header:  magic "DKCP" | version u32 | pos u64
//	strings: bench (u32 len + bytes) | predictor name (u32 len + bytes)
//	blobs:   predictor state (u32 len + bytes)
//	         confidence state (presence u8, then u32 len + bytes when 1)
//	         generator state (u32 len + bytes; length 0 when absent)
//	caches:  the hierarchy's snapshot, mem.Hierarchy.SaveState, to the
//	         trailer (L1 then L2, each a presence u8 and then the cache's
//	         geometry, LRU clock, tags, valid bytes and LRU stamps; see mem)
//	trailer: CRC-32C (Castagnoli) of every preceding byte, u32
//
// Version 2 added the generator state and the trailer. Decode fails
// loudly on truncation, corruption, or a version it does not speak — the
// store may hold checkpoints written by an older binary, which then count
// as misses. The sections' contents are their owners' to check, at restore.
const (
	ckptMagic   = "DKCP"
	ckptVersion = 2

	// maxSection caps any single length prefix; a corrupt header must not
	// drive a multi-gigabyte allocation.
	maxSection = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes a checkpoint.
func Encode(c *Checkpoint) []byte {
	n := 4 + 4 + 8 + 4 + len(c.Bench) + 4 + len(c.PredName) + 4 + len(c.Pred) + 1 + 4 + len(c.Conf) + 4 + len(c.Gen) + len(c.Hier) + 4
	b := make([]byte, 0, n)
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
	b = append(b, c.Hier...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

func appendBytes(b, data []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
	return append(b, data...)
}

// Decode deserializes a checkpoint written by Encode. It checks the magic,
// version, checksum and length-prefixed sections, and keeps what follows
// them as the cache section. It does not check that a section fits any
// particular engine or generator, nor the cache section's layout: restore
// does that.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < 4+4+4 {
		return nil, fmt.Errorf("ckpt: %d bytes cannot hold a header and a checksum", len(data))
	}
	if magic := data[:4]; string(magic) != ckptMagic {
		return nil, fmt.Errorf("ckpt: bad magic %q", magic)
	}
	if version := binary.LittleEndian.Uint32(data[4:]); version != ckptVersion {
		return nil, fmt.Errorf("ckpt: unsupported version %d (speak %d)", version, ckptVersion)
	}
	body := len(data) - 4
	if sum, want := crc32.Checksum(data[:body], crcTable), binary.LittleEndian.Uint32(data[body:]); sum != want {
		return nil, fmt.Errorf("ckpt: checksum %08x does not match stored %08x", sum, want)
	}
	r := binread.New(data[8:body])
	c := &Checkpoint{Pos: r.U64()}
	c.Bench = string(r.Blob(maxSection))
	c.PredName = string(r.Blob(maxSection))
	c.Pred = r.Blob(maxSection)
	if r.Flag() {
		c.Conf = r.Blob(maxSection)
	}
	if c.Gen = r.Blob(maxSection); len(c.Gen) == 0 {
		c.Gen = nil
	}
	if rest := r.Rest(); len(rest) > 0 {
		c.Hier = bytes.Clone(rest)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return c, nil
}
