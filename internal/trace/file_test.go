package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"dkip/internal/isa"
)

func TestWriteReadRoundTrip(t *testing.T) {
	src := NewReplay("prog", prog())
	var buf bytes.Buffer
	if err := Write(&buf, src, 100); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "prog" {
		t.Errorf("name %q", got.Name())
	}
	src.Reset()
	for i := 0; i < 100; i++ {
		a, b := src.Next(), got.Next()
		if a != b {
			t.Fatalf("instruction %d differs: %v vs %v", i, &a, &b)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("DKTRxxxxxxxxxxxxxxxxxxx"),
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, NewReplay("p", prog()), 3); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // corrupt version
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, NewReplay("p", prog()), 10); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)-5])); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestReadRejectsInvalidOpcode(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, NewReplay("p", prog()), 1); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-5] = 200 // opcode byte of the only record
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Error("invalid opcode accepted")
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	instrs := []isa.Instr{
		{PC: 4, Op: isa.Branch, Dest: isa.RegNone, Src1: isa.IntReg(1), Src2: isa.RegNone, Taken: true},
		{PC: 8, Op: isa.Load, Dest: isa.IntReg(2), Src1: isa.IntReg(2), Src2: isa.RegNone, Addr: 64, ChainLoad: true},
	}
	var buf bytes.Buffer
	if err := Write(&buf, NewReplay("f", instrs), 2); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b := got.Next(); !b.Taken {
		t.Error("taken flag lost")
	}
	if l := got.Next(); !l.ChainLoad {
		t.Error("chain flag lost")
	}
}

func TestTee(t *testing.T) {
	tee := NewTee(NewReplay("p", prog()))
	for i := 0; i < 7; i++ {
		tee.Next()
	}
	if len(tee.Recorded()) != 7 {
		t.Errorf("recorded %d", len(tee.Recorded()))
	}
	if tee.Name() != "p" {
		t.Errorf("name %q", tee.Name())
	}
}

// TestWriteRejectsUnreadable pins the write/read symmetry: every parameter
// combination Write accepts must produce a trace Read accepts, so the
// format limits are enforced on both sides.
func TestWriteRejectsUnreadable(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, NewReplay("p", prog()), 0); err == nil {
		t.Error("zero-instruction trace written (Read refuses count 0)")
	}
	if err := Write(&buf, NewReplay("p", prog()), maxTraceInstrs+1); err == nil {
		t.Error("oversized trace accepted (Read refuses it)")
	}
	long := strings.Repeat("n", maxTraceName+1)
	if err := Write(&buf, NewReplay(long, prog()), 1); err == nil {
		t.Error("overlong name written (Read refuses it)")
	}
}

// TestWriteReadBoundaries round-trips the exact format limits: one
// instruction, and a name of exactly maxTraceName bytes.
func TestWriteReadBoundaries(t *testing.T) {
	name := strings.Repeat("n", maxTraceName)
	var buf bytes.Buffer
	if err := Write(&buf, NewReplay(name, prog()), 1); err != nil {
		t.Fatalf("boundary write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("boundary read: %v", err)
	}
	if got.Name() != name {
		t.Errorf("name length %d survived as %d", maxTraceName, len(got.Name()))
	}
	if len(got.Instrs) != 1 {
		t.Errorf("restored %d instructions, want 1", len(got.Instrs))
	}
}

// TestReadHostileCount hands Read a well-formed header whose count claims
// the format maximum with no records behind it: it must fail on the missing
// record, not allocate gigabytes up front.
func TestReadHostileCount(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(traceMagic)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceVersion)
	binary.LittleEndian.PutUint64(hdr[4:], maxTraceInstrs)
	binary.LittleEndian.PutUint32(hdr[12:], 1)
	buf.Write(hdr[:])
	buf.WriteByte('p')
	if _, err := Read(&buf); err == nil {
		t.Fatal("header-only trace claiming 256M records accepted")
	}
}
