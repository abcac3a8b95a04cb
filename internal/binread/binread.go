// Package binread reads the little-endian snapshots the simulator writes:
// the checkpoint framing, the cache hierarchy's contents, the predictor
// tables and the workload generator's place in its stream.
//
// A Reader reads front to back. The first read that fails sets an error
// that sticks, and every later read returns zero, so a caller reads all its
// fields and checks once, with Err or Done. The errors are fixed values:
// refusing an input allocates nothing.
package binread

import (
	"encoding/binary"
	"errors"
)

// The errors a Reader reports.
var (
	// ErrTruncated is a read past the end of the input.
	ErrTruncated = errors.New("truncated input")
	// ErrTrailing is an input with bytes left after its last field.
	ErrTrailing = errors.New("trailing bytes")
	// ErrFlag is a flag byte that is neither 0 nor 1.
	ErrFlag = errors.New("flag byte other than 0 or 1")
	// ErrLength is a length prefix over the cap its reader gave.
	ErrLength = errors.New("length prefix over its cap")
)

// Reader reads little-endian values from a byte slice.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// New returns a Reader at the start of data.
func New(data []byte) Reader { return Reader{data: data} }

// Err returns the first error a read met, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first error a read met, or ErrTrailing when bytes are
// left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.pos != len(r.data) {
		r.err = ErrTrailing
	}
	return r.err
}

// Bytes returns the next n bytes without copying them.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.pos {
		r.err = ErrTruncated
		return nil
	}
	b := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

// Rest returns the bytes not yet read, without copying them.
func (r *Reader) Rest() []byte { return r.Bytes(len(r.data) - r.pos) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

// Flag reads a byte that must be 0 or 1.
func (r *Reader) Flag() bool {
	v := r.U8()
	if v > 1 && r.err == nil {
		r.err = ErrFlag
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); len(b) == 4 {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Blob reads a uint32 length prefix of at most max and that many bytes,
// and returns a copy of them: a non-nil slice, empty for length 0, that
// does not alias the input.
func (r *Reader) Blob(max int) []byte {
	n := r.U32()
	if r.err == nil && uint64(n) > uint64(max) {
		r.err = ErrLength
	}
	b := r.Bytes(int(n))
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, n), b...)
}
