package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"

	"dkip/internal/isa"
	"dkip/internal/xrand"
)

// Stream-state snapshot, little-endian:
//
//	fingerprint u64 (of the profile and this layout, see fingerprint)
//	rng 4×u64 | cur u32 | pos u32 | nextInt u8 | nextFP u8
//	seqAddr u64 | strideAddr u64 | chaseReg u8 | chaseLeft u32
//	lastLoadDest u8 | emitted u64
//	recentInt: n u8, n×u8 | recentFP: n u8, n×u8
//	iterLeft: n u32, n×u32
//
// The static code layout is not saved: it is a function of the profile,
// which the fingerprint pins.
const (
	stateLayout = 1
	// stateFixed is the length of the fixed-size fields.
	stateFixed = 8 + 4*8 + 4 + 4 + 1 + 1 + 8 + 8 + 1 + 4 + 1 + 8
	// seededRing is how many writers Reset seeds each register ring with;
	// rings only grow from there, up to regRing.
	seededRing = 8
	// maxGeometric bounds xrand.Geometric, hence a chase chain's length.
	maxGeometric = 1 << 20
)

// fingerprint hashes the state layout version and every field of p, in
// declaration order, so a snapshot is bound to the exact profile it was
// taken from.
func fingerprint(p *Profile) uint64 {
	b := binary.LittleEndian.AppendUint32(nil, stateLayout)
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			b = binary.LittleEndian.AppendUint64(b, uint64(f.Len()))
			b = append(b, f.String()...)
		case reflect.Float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Float()))
		case reflect.Int:
			b = binary.LittleEndian.AppendUint64(b, uint64(f.Int()))
		case reflect.Uint8, reflect.Uint64:
			b = binary.LittleEndian.AppendUint64(b, f.Uint())
		default:
			panic(fmt.Sprintf("workload: profile field %s has no fingerprint encoding", v.Type().Field(i).Name))
		}
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// SaveState snapshots the generator's place in its stream: everything Next
// reads or writes. A generator of the same profile loaded with it emits
// the same instructions from there on as this one.
func (b *Benchmark) SaveState() ([]byte, error) {
	out := make([]byte, 0, stateFixed+2+b.recentInt.n+b.recentFP.n+4+4*len(b.iterLeft))
	le := binary.LittleEndian
	out = le.AppendUint64(out, b.fp)
	for _, w := range b.rng.State() {
		out = le.AppendUint64(out, w)
	}
	out = le.AppendUint32(out, uint32(b.cur))
	out = le.AppendUint32(out, uint32(b.pos))
	out = append(out, byte(b.nextInt), byte(b.nextFP))
	out = le.AppendUint64(out, b.seqAddr)
	out = le.AppendUint64(out, b.strideAddr)
	out = append(out, byte(b.chaseReg))
	out = le.AppendUint32(out, uint32(b.chaseLeft))
	out = append(out, byte(b.lastLoadDest))
	out = le.AppendUint64(out, b.emitted)
	for _, ring := range [2][]isa.Reg{b.recentInt.recent(), b.recentFP.recent()} {
		out = append(out, byte(len(ring)))
		for _, r := range ring {
			out = append(out, byte(r))
		}
	}
	out = le.AppendUint32(out, uint32(len(b.iterLeft)))
	for _, n := range b.iterLeft {
		out = le.AppendUint32(out, uint32(n))
	}
	return out, nil
}

// LoadState resumes the stream where SaveState left it. It refuses a
// snapshot of another profile and any field no stream of this profile can
// reach, and then leaves the generator unchanged: every field is checked
// before any is assigned.
func (b *Benchmark) LoadState(data []byte) error {
	r := &stateReader{data: data}
	if fp := r.u64(); r.err == nil && fp != b.fp {
		return fmt.Errorf("workload: %s: state was taken from another profile", b.prof.Name)
	}
	var words [4]uint64
	for i := range words {
		words[i] = r.u64()
	}
	cur, pos := int(r.u32()), int(r.u32())
	nextInt, nextFP := int(r.u8()), int(r.u8())
	seqAddr, strideAddr := r.u64(), r.u64()
	chaseReg, chaseLeft, lastLoadDest := isa.Reg(r.u8()), r.u32(), isa.Reg(r.u8())
	emitted := r.u64()
	ringInt := r.bytes(int(r.u8()))
	ringFP := r.bytes(int(r.u8()))
	if n := r.u32(); r.err == nil && n != uint32(len(b.blocks)) {
		return fmt.Errorf("workload: %s: state has %d loop counters for %d blocks", b.prof.Name, n, len(b.blocks))
	}
	iter := r.bytes(4 * len(b.blocks))
	if err := r.done(); err != nil {
		return fmt.Errorf("workload: %s: %w", b.prof.Name, err)
	}

	var rng xrand.Rand
	err := rng.SetState(words)
	end := dataBase + b.prof.FootprintBytes
	switch {
	case err != nil:
	case cur >= len(b.blocks) || pos >= b.blocks[cur].n:
		err = fmt.Errorf("position %d in block %d is outside the code", pos, cur)
	case nextInt < 2 || nextInt >= isa.NumIntRegs || nextFP < 2 || nextFP >= isa.NumFPRegs:
		err = fmt.Errorf("destination allocators %d/%d out of range", nextInt, nextFP)
	case seqAddr < dataBase || seqAddr >= end || (seqAddr-dataBase)%8 != 0:
		err = fmt.Errorf("stream address %#x outside the footprint", seqAddr)
	case strideAddr < dataBase || strideAddr >= end:
		err = fmt.Errorf("stride address %#x outside the footprint", strideAddr)
	case !written(chaseReg, false) || chaseLeft > maxGeometric:
		err = fmt.Errorf("chase register %v with %d hops left", chaseReg, chaseLeft)
	case !written(lastLoadDest, false) && !written(lastLoadDest, true):
		err = fmt.Errorf("last load destination %v", lastLoadDest)
	case !validRing(ringInt, false) || !validRing(ringFP, true):
		err = fmt.Errorf("register rings of %d and %d writers", len(ringInt), len(ringFP))
	}
	for i := 0; err == nil && i < len(b.blocks); i++ {
		n, blk := int(binary.LittleEndian.Uint32(iter[4*i:])), &b.blocks[i]
		if (blk.kind == brLoop && (n < 1 || n > blk.period)) || (blk.kind != brLoop && n != 0) {
			err = fmt.Errorf("block %d has %d loop iterations left", i, n)
		}
	}
	if err != nil {
		return fmt.Errorf("workload: %s: invalid state: %w", b.prof.Name, err)
	}

	*b.rng = rng
	b.cur, b.pos = cur, pos
	for i := range b.iterLeft {
		b.iterLeft[i] = int(binary.LittleEndian.Uint32(iter[4*i:]))
	}
	b.recentInt.load(ringInt)
	b.recentFP.load(ringFP)
	b.nextInt, b.nextFP = nextInt, nextFP
	b.seqAddr, b.strideAddr = seqAddr, strideAddr
	b.chaseReg, b.chaseLeft, b.lastLoadDest = chaseReg, int(chaseLeft), lastLoadDest
	b.emitted = emitted
	return nil
}

// written reports whether r is a register of the class a stream can have
// written or seeded: any but the always-ready base register r0 and f0.
func written(r isa.Reg, fp bool) bool {
	if fp {
		return r.IsFP() && r != isa.FPReg(0)
	}
	return r.IsInt() && r != baseReg
}

// validRing reports whether raw is a register ring a stream can hold.
func validRing(raw []byte, fp bool) bool {
	if len(raw) < seededRing || len(raw) > regRing {
		return false
	}
	for _, r := range raw {
		if !written(isa.Reg(r), fp) {
			return false
		}
	}
	return true
}

// load replaces the writers with raw, newest first.
func (w *writers) load(raw []byte) {
	*w = writers{}
	for i := len(raw) - 1; i >= 0; i-- {
		w.push(isa.Reg(raw[i]))
	}
}

// stateReader reads a snapshot front to back. The first short read sets
// err, and every later read returns zero, so a caller checks once.
type stateReader struct {
	data []byte
	pos  int
	err  error
}

// bytes returns the next n bytes without copying them.
func (r *stateReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.data)-r.pos {
		r.err = fmt.Errorf("state truncated at byte %d", r.pos)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *stateReader) u8() uint8 {
	if b := r.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *stateReader) u32() uint32 {
	if b := r.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *stateReader) u64() uint64 {
	if b := r.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *stateReader) done() error {
	if r.err == nil && r.pos != len(r.data) {
		r.err = fmt.Errorf("%d trailing state bytes", len(r.data)-r.pos)
	}
	return r.err
}
