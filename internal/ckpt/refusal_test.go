package ckpt_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"dkip/internal/ckpt"
)

// resealed returns a copy of data with its last four bytes replaced by the
// checksum of the bytes before them, so the input passes the trailer check.
func resealed(data []byte) []byte {
	body := len(data) - 4
	return binary.LittleEndian.AppendUint32(append([]byte{}, data[:body]...), crc32.Checksum(data[:body], crc32.MakeTable(crc32.Castagnoli)))
}

// TestMalformedCheckpointsRefused covers every input Decode refused while
// it parsed the cache section itself: each truncation, bare and resealed; a
// trailing byte, bare and resealed; bad magic; a future version; an
// oversized length; each flag byte set to 2 and resealed — the confidence
// presence byte, both cache levels' presence bytes and every valid byte —
// and a way count no input could back. Decode now checks the framing only,
// so an input whose fault lies in the cache section decodes, and restoring
// it into an engine of the family it came from must fail instead. Either
// way the input is refused with an error, never a panic.
func TestMalformedCheckpointsRefused(t *testing.T) {
	for _, spec := range smallFamilies() {
		c, g := capture(t, spec)
		var err error
		if c.Gen, err = g.SaveState(); err != nil {
			t.Fatal(err)
		}
		data := ckpt.Encode(c)
		target := spec.NewEngine()
		if err := target.RestoreArch(c); err != nil {
			t.Fatalf("%s: the intact checkpoint: %v", spec.Bench, err)
		}
		refused := func(what string, b []byte) {
			t.Helper()
			got, err := ckpt.Decode(b)
			if err == nil {
				err = target.RestoreArch(got)
			}
			if err == nil {
				t.Errorf("%s: %s decoded and restored cleanly", spec.Bench, what)
			}
		}
		with := func(off int, edit func(b []byte)) []byte {
			b := append([]byte{}, data...)
			edit(b[off:])
			return resealed(b)
		}

		for n := 0; n < len(data); n++ {
			refused(fmt.Sprintf("truncation to %d of %d bytes", n, len(data)), data[:n])
			if n >= 4 {
				refused(fmt.Sprintf("resealed truncation to %d of %d bytes", n, len(data)), resealed(data[:n]))
			}
		}
		refused("a trailing byte", append(append([]byte{}, data...), 0))
		refused("a resealed trailing byte", resealed(append(append([]byte{}, data...), 0)))
		refused("bad magic", with(0, func(b []byte) { copy(b, "JUNK") }))
		refused("a future version", with(4, func(b []byte) { binary.LittleEndian.PutUint32(b, 3) }))
		refused("an oversized bench length", with(16, func(b []byte) { binary.LittleEndian.PutUint32(b, 1<<28+1) }))

		conf := 4 + 4 + 8 + 4 + len(c.Bench) + 4 + len(c.PredName) + 4 + len(c.Pred)
		hier := len(data) - 4 - len(c.Hier)
		l1Ways := int(binary.LittleEndian.Uint32(data[hier+21:]))
		l2 := hier + 25 + 17*l1Ways
		l2Ways := int(binary.LittleEndian.Uint32(data[l2+21:]))
		flags := []int{conf, hier, l2}
		for i := 0; i < l1Ways; i++ {
			flags = append(flags, hier+25+8*l1Ways+i)
		}
		for i := 0; i < l2Ways; i++ {
			flags = append(flags, l2+25+8*l2Ways+i)
		}
		for _, off := range flags {
			refused(fmt.Sprintf("flag byte 2 at offset %d", off), with(off, func(b []byte) { b[0] = 2 }))
		}
		refused("a hostile L1 way count", with(hier+21, func(b []byte) { binary.LittleEndian.PutUint32(b, (1<<28)/17) }))
	}
}
