package mem

import (
	"encoding/binary"
	"errors"

	"dkip/internal/binread"
)

// Hierarchy snapshot, little-endian: L1 then L2, each
//
//	presence u8 (0 for a perfect or absent level, and nothing follows)
//	size u32 | line u32 | assoc u32 | clock u64 | ways u32 |
//	tags ways×u64 | valid ways×u8 | lru ways×u64
//
// It is the cache section of a checkpoint: internal/ckpt frames it, and
// this package alone lays it out and checks it. Every field is an exact
// integer, so a restored hierarchy replays bit for bit as one warmed in
// place. Access statistics are not part of it.

// wayBytes is the snapshot size of one cache way: tag, valid, LRU.
const wayBytes = 8 + 1 + 8

// LoadState's refusals of its own; the reader's are binread's errors.
var (
	errStateLevels   = errors.New("mem: state's cache levels do not match the hierarchy's")
	errStateGeometry = errors.New("mem: state's cache geometry does not match the hierarchy's")
)

// SaveState snapshots the hierarchy's cache contents: tags, valid bits and
// LRU clocks.
func (h *Hierarchy) SaveState() []byte {
	b := make([]byte, 0, h.l1.stateLen()+h.l2.stateLen())
	return h.l2.appendState(h.l1.appendState(b))
}

// LoadState restores a snapshot SaveState took from a hierarchy of the same
// configuration. It checks the snapshot against this hierarchy — each
// level's presence, geometry and way count, every flag byte and the length
// — before it writes either level, so a refused snapshot leaves the
// hierarchy as it was. Statistics are left untouched. It allocates nothing,
// whether it refuses the snapshot or not: its errors are fixed values,
// binread's or this package's, which callers wrap.
func (h *Hierarchy) LoadState(data []byte) error {
	r := binread.New(data)
	l1, err := h.l1.readState(&r)
	if err != nil {
		return err
	}
	l2, err := h.l2.readState(&r)
	if err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	h.l1.loadState(l1)
	h.l2.loadState(l2)
	return nil
}

// stateLen is the size of the cache's snapshot section; a nil cache (a
// perfect or absent level) writes its presence byte alone.
func (c *Cache) stateLen() int {
	if c == nil {
		return 1
	}
	return 1 + 3*4 + 8 + 4 + len(c.tags)*wayBytes
}

func (c *Cache) appendState(b []byte) []byte {
	if c == nil {
		return append(b, 0)
	}
	le := binary.LittleEndian
	b = append(b, 1)
	b = le.AppendUint32(b, uint32(c.sizeBytes))
	b = le.AppendUint32(b, uint32(c.lineBytes))
	b = le.AppendUint32(b, uint32(c.assoc))
	b = le.AppendUint64(b, c.clock)
	b = le.AppendUint32(b, uint32(len(c.tags)))
	for _, t := range c.tags {
		b = le.AppendUint64(b, t)
	}
	for _, v := range c.valid {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for _, l := range c.lru {
		b = le.AppendUint64(b, l)
	}
	return b
}

// cacheImage is one level's checked section of a snapshot, not yet loaded.
type cacheImage struct {
	clock            uint64
	tags, valid, lru []byte
}

// readState reads one level's section and checks it against c, which is
// nil for a perfect or absent level.
func (c *Cache) readState(r *binread.Reader) (cacheImage, error) {
	var im cacheImage
	present := r.Flag()
	if err := r.Err(); err != nil {
		return im, err
	}
	if present != (c != nil) {
		return im, errStateLevels
	}
	if c == nil {
		return im, nil
	}
	size, line, assoc := r.U32(), r.U32(), r.U32()
	im.clock = r.U64()
	ways := r.U32()
	if err := r.Err(); err != nil {
		return im, err
	}
	// The way count is checked before the ways are read: a hostile count
	// never decides how far the reader goes.
	if int(size) != c.sizeBytes || int(line) != c.lineBytes || int(assoc) != c.assoc || int(ways) != len(c.tags) {
		return im, errStateGeometry
	}
	n := len(c.tags)
	im.tags, im.valid, im.lru = r.Bytes(8*n), r.Bytes(n), r.Bytes(8*n)
	if err := r.Err(); err != nil {
		return im, err
	}
	for _, v := range im.valid {
		if v > 1 {
			return im, binread.ErrFlag
		}
	}
	return im, nil
}

// loadState writes a section readState checked.
func (c *Cache) loadState(im cacheImage) {
	if c == nil {
		return
	}
	le := binary.LittleEndian
	for i := range c.tags {
		c.tags[i] = le.Uint64(im.tags[8*i:])
		c.valid[i] = im.valid[i] == 1
		c.lru[i] = le.Uint64(im.lru[8*i:])
	}
	c.clock = im.clock
}
