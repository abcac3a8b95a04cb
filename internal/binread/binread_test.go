package binread

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestReaderReadsInOrder(t *testing.T) {
	b := []byte{7, 1, 0}
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 1<<40+3)
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = append(b, 'h', 'i', 9, 9)
	r := New(b)
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d, want 7", got)
	}
	if !r.Flag() || r.Flag() {
		t.Error("Flag did not read 1 then 0")
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<40+3 {
		t.Errorf("U64 = %d", got)
	}
	blob := r.Blob(2)
	if string(blob) != "hi" {
		t.Errorf("Blob = %q, want %q", blob, "hi")
	}
	blob[0] = 'x'
	if b[len(b)-4] != 'h' {
		t.Error("Blob aliases its input")
	}
	if got := r.Rest(); !bytes.Equal(got, []byte{9, 9}) {
		t.Errorf("Rest = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

func TestReaderEmptyBlobIsNotNil(t *testing.T) {
	r := New([]byte{0, 0, 0, 0})
	if b := r.Blob(0); b == nil || len(b) != 0 {
		t.Errorf("Blob of length 0 = %#v, want an empty non-nil slice", b)
	}
	if err := r.Done(); err != nil {
		t.Error(err)
	}
}

// TestReaderErrorsStick checks each refusal and that the first error stays:
// every later read returns zero and leaves it in place.
func TestReaderErrorsStick(t *testing.T) {
	for name, c := range map[string]struct {
		data []byte
		read func(r *Reader)
		want error
	}{
		"short U32":      {[]byte{1, 2, 3}, func(r *Reader) { r.U32() }, ErrTruncated},
		"short U64":      {[]byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.U64() }, ErrTruncated},
		"empty U8":       {nil, func(r *Reader) { r.U8() }, ErrTruncated},
		"negative Bytes": {[]byte{1}, func(r *Reader) { r.Bytes(-1) }, ErrTruncated},
		"flag 2":         {[]byte{2, 0}, func(r *Reader) { r.Flag() }, ErrFlag},
		"blob over cap":  {[]byte{3, 0, 0, 0, 1, 2, 3}, func(r *Reader) { r.Blob(2) }, ErrLength},
		"blob short":     {[]byte{3, 0, 0, 0, 1, 2}, func(r *Reader) { r.Blob(8) }, ErrTruncated},
		"trailing":       {[]byte{1, 2}, func(r *Reader) { r.U8() }, ErrTrailing},
	} {
		r := New(c.data)
		c.read(&r)
		if got := r.Done(); got != c.want {
			t.Errorf("%s: Done = %v, want %v", name, got, c.want)
		}
		if r.U8() != 0 || r.U32() != 0 || r.U64() != 0 || r.Flag() || r.Bytes(0) != nil || r.Blob(8) != nil || r.Rest() != nil {
			t.Errorf("%s: a read after the error returned a value", name)
		}
		if r.Err() != c.want {
			t.Errorf("%s: a later read replaced the error with %v", name, r.Err())
		}
	}
}

func TestReaderRefusesWithoutAllocating(t *testing.T) {
	data := []byte{5, 0, 0, 0, 2}
	if n := testing.AllocsPerRun(100, func() {
		r := New(data)
		r.Flag()
		r.U64()
		_ = r.Done()
	}); n != 0 {
		t.Errorf("a refused read allocates %.0f times, want 0", n)
	}
}
