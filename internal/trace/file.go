package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dkip/internal/isa"
)

// Binary trace format: the simulators are trace-driven, and capturing a
// generator's output lets a run be reproduced bit-exactly elsewhere (or a
// real trace be injected in place of the synthetic workloads). The format is
// a fixed 24-byte header followed by fixed 21-byte little-endian records:
//
//	header: magic "DKTR" | version u32 | count u64 | name length u32 + name bytes
//	record: PC u64 | Addr u64 | Op u8 | Dest u8 | Src1 u8 | Src2 u8 | flags u8
//
// flags bit 0 = branch taken, bit 1 = chain load.
const (
	traceMagic   = "DKTR"
	traceVersion = 1
	recordBytes  = 21

	// maxTraceName bounds the embedded generator name; maxTraceInstrs the
	// instruction count (256M records ≈ 5.4GB decoded). Write enforces both
	// so that every trace it emits is one Read accepts — the limits are
	// format constants, not reader paranoia.
	maxTraceName   = 4096
	maxTraceInstrs = 1 << 28
)

// Write serializes n instructions from g to w. It refuses parameters the
// format cannot round-trip: a zero or implausibly large count, or a
// generator name longer than the header field allows.
func Write(w io.Writer, g Generator, n uint64) error {
	name := g.Name()
	if n == 0 || n > maxTraceInstrs {
		return fmt.Errorf("trace: instruction count %d outside the format's 1..%d", n, uint64(maxTraceInstrs))
	}
	if len(name) > maxTraceName {
		return fmt.Errorf("trace: generator name %d bytes exceeds the format's %d", len(name), maxTraceName)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return fmt.Errorf("trace: writing magic: %w", err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceVersion)
	binary.LittleEndian.PutUint64(hdr[4:], n)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	if _, err := bw.WriteString(name); err != nil {
		return fmt.Errorf("trace: writing name: %w", err)
	}
	var rec [recordBytes]byte
	for i := uint64(0); i < n; i++ {
		in := g.Next()
		binary.LittleEndian.PutUint64(rec[0:], in.PC)
		binary.LittleEndian.PutUint64(rec[8:], in.Addr)
		rec[16] = byte(in.Op)
		rec[17] = byte(in.Dest)
		rec[18] = byte(in.Src1)
		rec[19] = byte(in.Src2)
		var flags byte
		if in.Taken {
			flags |= 1
		}
		if in.ChainLoad {
			flags |= 2
		}
		rec[20] = flags
		if _, err := bw.Write(rec[:]); err != nil {
			return fmt.Errorf("trace: writing record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write into a looping Replay
// generator.
func Read(r io.Reader) (*Replay, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(hdr[4:])
	nameLen := binary.LittleEndian.Uint32(hdr[12:])
	if nameLen > maxTraceName {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if count == 0 || count > maxTraceInstrs {
		return nil, fmt.Errorf("trace: implausible instruction count %d", count)
	}
	// The count came off the wire: grow the slice as records actually
	// arrive, so a 24-byte header claiming 256M instructions costs a read
	// error, not a multi-gigabyte allocation.
	instrs := make([]isa.Instr, 0, min(count, 1<<16))
	var rec [recordBytes]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		in := isa.Instr{
			PC:   binary.LittleEndian.Uint64(rec[0:]),
			Addr: binary.LittleEndian.Uint64(rec[8:]),
			Op:   isa.Op(rec[16]),
			Dest: isa.Reg(rec[17]),
			Src1: isa.Reg(rec[18]),
			Src2: isa.Reg(rec[19]),
		}
		if !in.Op.Valid() {
			return nil, fmt.Errorf("trace: record %d has invalid opcode %d", i, rec[16])
		}
		in.Taken = rec[20]&1 != 0
		in.ChainLoad = rec[20]&2 != 0
		instrs = append(instrs, in)
	}
	return NewReplay(string(name), instrs), nil
}

// Tee wraps a generator, recording every instruction it produces. Use
// Recorded to retrieve the captured stream (e.g. to Write it to a file).
type Tee struct {
	G        Generator
	recorded []isa.Instr
}

// NewTee wraps g.
func NewTee(g Generator) *Tee { return &Tee{G: g} }

// Next produces and records the next instruction.
func (t *Tee) Next() isa.Instr {
	in := t.G.Next()
	t.recorded = append(t.recorded, in)
	return in
}

// Name returns the wrapped generator's name.
func (t *Tee) Name() string { return t.G.Name() }

// Recorded returns the instructions produced so far.
func (t *Tee) Recorded() []isa.Instr { return t.recorded }
