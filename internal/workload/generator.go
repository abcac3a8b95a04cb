package workload

import (
	"fmt"

	"dkip/internal/isa"
	"dkip/internal/trace"
	"dkip/internal/xrand"
)

// branchKind is the static classification of a block-terminating branch.
type branchKind uint8

const (
	// brBiased branches go one way with probability Profile.BrBias.
	brBiased branchKind = iota
	// brLoop branches iterate a fixed trip count then fall through.
	brLoop
	// brDataDep branches test recently loaded data; a DataDepNoise
	// fraction of executions are unpredictable coin flips.
	brDataDep
)

// block is one static basic block of the synthetic program.
type block struct {
	pc       uint64 // address of the first instruction
	n        int    // instructions including the terminating branch
	kind     branchKind
	takenTo  int  // block index of the taken target
	majority bool // majority direction of biased branches
	period   int  // trip count for loop branches
}

const (
	blockSpacing = 256 // bytes of address space reserved per block
	regRing      = 24  // recent register writers tracked per class
	codeBase     = 0x0040_0000
	dataBase     = 0x1000_0000
	hotBase      = 0x7000_0000
)

// baseReg is the address-base register of regular (stream/stride/hot)
// accesses. No instruction ever defines it, so it is always ready — modeling
// the reality that array bases and induction variables are cheap, predictable
// integer values that do not depend on loaded data. Pointer-chasing loads are
// the deliberate exception: their base is the previous load's destination.
const baseReg = isa.Reg(0)

// Benchmark is a deterministic synthetic instruction stream for one profile.
// It implements trace.Filler. Not safe for concurrent use.
type Benchmark struct {
	prof   Profile
	blocks []block
	rng    *xrand.Rand

	cur, pos int
	iterLeft []int // per-block remaining loop iterations

	// Recent register writers per class.
	recentInt, recentFP writers
	nextInt, nextFP     int // round-robin destination allocators

	// Address-stream state.
	seqAddr, strideAddr uint64
	chaseReg            isa.Reg // destination of the previous chase load
	chaseLeft           int     // chase loads remaining in the current chain
	lastLoadDest        isa.Reg

	emitted uint64

	// Per-profile constants of the dynamic stream, computed once by derive
	// with the float operations Next would otherwise repeat per instruction.
	bodyW   xrand.Weights // body slot kinds: load, store, int ALU, int mul, FP add, FP mul, FP div
	patW    xrand.Weights // load address patterns: stream, stride, hot, chase
	pDep    xrand.Prob    // 1/MeanDepDist, the dependence-distance probability
	pChain  xrand.Prob    // 1/ChaseChainLen, the chase-chain length probability
	pLoadFP xrand.Prob    // LoadFPFrac
	pBias   xrand.Prob    // BrBias
	pNoise  xrand.Prob    // DataDepNoise
	hotZ    xrand.Zipf    // reuse skew over the hot region's 8-byte words
	fp      uint64        // fingerprint of the profile, leading every state snapshot
}

// The fixed probabilities of the dynamic stream.
var (
	pSecondSrc = xrand.NewProb(0.6) // a compute instruction has a second source
	pHalf      = xrand.NewProb(0.5)
)

var _ trace.Filler = (*Benchmark)(nil)

// writers holds one register class's recent writers, newest first, as the
// window buf[head:head+n]. Each is stored twice, regRing apart, so the
// window is contiguous wherever head stands and a write moves nothing.
type writers struct {
	buf     [2 * regRing]isa.Reg
	head, n int
}

// push records r as the newest writer, dropping the oldest from a full
// window.
func (w *writers) push(r isa.Reg) {
	if w.head == 0 {
		w.head = regRing
	}
	w.head--
	w.buf[w.head], w.buf[w.head+regRing] = r, r
	if w.n < regRing {
		w.n++
	}
}

// recent returns the writers, newest first.
func (w *writers) recent() []isa.Reg { return w.buf[w.head : w.head+w.n] }

// New builds the generator for a named SPEC2000 benchmark.
func New(name string) (*Benchmark, error) {
	p, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return NewFromProfile(p)
}

// MustNew is New for tests and experiment definitions; it panics on error.
func MustNew(name string) *Benchmark {
	b, err := New(name)
	if err != nil {
		panic(err)
	}
	return b
}

// NewFromProfile builds a generator from an explicit profile, allowing tests
// and ablations to craft workloads.
func NewFromProfile(p Profile) (*Benchmark, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := &Benchmark{prof: p}
	b.buildStatic()
	b.derive()
	b.Reset()
	return b, nil
}

// derive computes the per-profile constants Next draws with. The profile is
// valid, so every probability lies in [0, 1].
func (b *Benchmark) derive() {
	p := &b.prof
	// Profile fractions are of all instructions; body slots exclude the
	// one branch per block, so rescale loads and stores accordingly.
	bodyLoad := p.LoadFrac / (1 - p.BranchFrac)
	bodyStore := p.StoreFrac / (1 - p.BranchFrac)
	cs := computeScale(p)
	b.bodyW = xrand.NewWeights([]float64{bodyLoad, bodyStore,
		p.IntALUW * cs, p.IntMulW * cs,
		p.FPAddW * cs, p.FPMulW * cs, p.FPDivW * cs})
	b.patW = xrand.NewWeights([]float64{p.PatStream, p.PatStride, p.PatHot, p.PatChase})
	b.pDep = xrand.NewProb(1 / p.MeanDepDist)
	b.pChain = xrand.NewProb(1 / float64(p.ChaseChainLen))
	b.pLoadFP = xrand.NewProb(p.LoadFPFrac)
	b.pBias = xrand.NewProb(p.BrBias)
	b.pNoise = xrand.NewProb(p.DataDepNoise)
	b.hotZ = xrand.NewZipf(int(p.HotBytes/8), 0.9)
	b.fp = fingerprint(p)
}

// Profile returns the profile the generator was built from.
func (b *Benchmark) Profile() Profile { return b.prof }

// WarmRanges returns the [base, size] address ranges a processor should walk
// through its caches before measuring, establishing the steady-state
// residency a long-running program would have: the data footprint first,
// then the hot region (which therefore wins cache capacity).
func (b *Benchmark) WarmRanges() [][2]uint64 {
	return [][2]uint64{
		{dataBase, b.prof.FootprintBytes},
		{hotBase, b.prof.HotBytes},
	}
}

// Name returns the benchmark name.
func (b *Benchmark) Name() string { return b.prof.Name }

// buildStatic lays out the basic blocks, branch kinds, loop periods, and the
// control-flow graph. It is deterministic in the profile seed.
func (b *Benchmark) buildStatic() {
	rng := xrand.New(b.prof.Seed)
	n := b.prof.NumBlocks
	b.blocks = make([]block, n)
	kindW := []float64{b.prof.BrBiased, b.prof.BrLoop, b.prof.BrDataDep}
	meanLen := 1 / b.prof.BranchFrac
	for i := range b.blocks {
		length := rng.Geometric(1 / meanLen)
		if length < 3 {
			length = 3
		}
		if max := blockSpacing / 4; length > max {
			length = max
		}
		blk := block{
			pc:       codeBase + uint64(i)*blockSpacing,
			n:        length,
			kind:     branchKind(rng.Pick(kindW)),
			majority: rng.Bool(0.7), // most biased branches are taken-biased
		}
		switch blk.kind {
		case brLoop:
			blk.period = rng.Geometric(1 / float64(b.prof.LoopPeriodMean))
			if blk.period < 2 {
				blk.period = 2
			}
			blk.takenTo = i // loop branches re-execute their own block
		default:
			// Taken targets are short forward jumps (if/else shape),
			// so control flow keeps progressing through the whole
			// code footprint instead of collapsing into a trap cycle.
			blk.takenTo = (i + 1 + rng.Intn(6)) % n
		}
		b.blocks[i] = blk
	}
}

// Reset restarts the dynamic instruction stream; static code layout is
// unchanged (it depends only on the profile seed).
func (b *Benchmark) Reset() {
	b.rng = xrand.New(b.prof.Seed ^ 0xd1fa_c0de_d1fa_c0de)
	b.cur, b.pos = 0, 0
	b.iterLeft = make([]int, len(b.blocks))
	for i, blk := range b.blocks {
		b.iterLeft[i] = blk.period
	}
	// Seed the rings so early instructions have producers to consume:
	// r1 and f1 newest, r8 and f8 oldest.
	b.recentInt, b.recentFP = writers{}, writers{}
	for i := seededRing; i > 0; i-- {
		b.recentInt.push(isa.IntReg(i))
		b.recentFP.push(isa.FPReg(i))
	}
	b.nextInt, b.nextFP = 9, 9
	b.seqAddr = dataBase
	b.strideAddr = dataBase + b.prof.FootprintBytes/2
	b.chaseReg = isa.IntReg(1)
	b.chaseLeft = 0
	b.lastLoadDest = isa.IntReg(1)
	b.emitted = 0
}

// Emitted returns the number of instructions produced since the last Reset.
func (b *Benchmark) Emitted() uint64 { return b.emitted }

// noteWriter records a new register writer.
func (b *Benchmark) noteWriter(r isa.Reg) {
	if r.IsFP() {
		b.recentFP.push(r)
	} else {
		b.recentInt.push(r)
	}
}

// pickSrc selects a source register at a geometric dependence distance from
// the most recent writers of the class.
func (b *Benchmark) pickSrc(fp bool) isa.Reg {
	w := &b.recentInt
	if fp {
		w = &b.recentFP
	}
	d := b.rng.GeometricProb(b.pDep)
	if d > w.n {
		d = w.n
	}
	return w.buf[w.head+d-1]
}

// allocDest returns a fresh destination register for the class, rotating
// through the upper register space so names are regularly redefined.
func (b *Benchmark) allocDest(fp bool) isa.Reg {
	if fp {
		r := isa.FPReg(b.nextFP)
		b.nextFP++
		if b.nextFP >= isa.NumFPRegs {
			b.nextFP = 2
		}
		return r
	}
	r := isa.IntReg(b.nextInt)
	b.nextInt++
	if b.nextInt >= isa.NumIntRegs {
		b.nextInt = 2
	}
	return r
}

// loadAddr picks the next load address and the address-base register
// according to the profile's pattern mixture.
func (b *Benchmark) loadAddr() (addr uint64, base isa.Reg, chase bool) {
	pat := b.patW.Pick(b.rng)
	switch pat {
	case 0: // streaming
		b.seqAddr += 8
		if b.seqAddr >= dataBase+b.prof.FootprintBytes {
			b.seqAddr = dataBase
		}
		return b.seqAddr, baseReg, false
	case 1: // strided
		b.strideAddr += b.prof.StrideBytes
		if b.strideAddr >= dataBase+b.prof.FootprintBytes {
			b.strideAddr = dataBase + b.rng.Uint64n(b.prof.StrideBytes)
		}
		return b.strideAddr, baseReg, false
	case 2: // hot, cache-resident region with Zipf-skewed reuse
		off := uint64(b.hotZ.Sample(b.rng)) * 8
		return hotBase + off, baseReg, false
	default:
		// Pointer chase: within a chain the address register is the
		// previous chase load's destination, serializing the loads.
		// Chains end after a geometric number of hops; the next chain
		// starts from a fresh head pointer that is ready early, so
		// separate traversals overlap in a large window (this is the
		// memory-level parallelism KILO-class designs harvest).
		addr = dataBase + (b.rng.Uint64n(b.prof.FootprintBytes) &^ 7)
		if b.chaseLeft <= 0 {
			// New traversal: the head pointer (a global, an array
			// slot indexed by an induction variable) is ready early,
			// so separate chains can overlap.
			b.chaseLeft = b.rng.GeometricProb(b.pChain)
			return addr, baseReg, true
		}
		b.chaseLeft--
		return addr, b.chaseReg, true
	}
}

// Next produces the next correct-path instruction.
func (b *Benchmark) Next() isa.Instr {
	blk := &b.blocks[b.cur]
	pc := blk.pc + uint64(b.pos)*4
	var in isa.Instr
	if b.pos == blk.n-1 {
		in = b.branch(blk, pc)
		b.advance(blk, in.Taken)
	} else {
		in = b.body(pc)
		b.pos++
	}
	b.emitted++
	return in
}

// Fill writes the next len(buf) instructions into buf, as len(buf) Next
// calls would return them.
func (b *Benchmark) Fill(buf []isa.Instr) {
	for i := range buf {
		buf[i] = b.Next()
	}
}

// body generates one non-branch instruction at the given PC.
func (b *Benchmark) body(pc uint64) isa.Instr {
	kind := b.bodyW.Pick(b.rng)
	switch kind {
	case 0: // load
		addr, base, chase := b.loadAddr()
		fp := !chase && b.rng.Hit(b.pLoadFP)
		dest := b.allocDest(fp)
		in := isa.Instr{PC: pc, Op: isa.Load, Dest: dest, Src1: base, Src2: isa.RegNone, Addr: addr, ChainLoad: chase}
		if chase {
			b.chaseReg = dest
		}
		b.lastLoadDest = dest
		b.noteWriter(dest)
		return in
	case 1: // store
		addr, base, _ := b.storeAddr()
		dataFP := b.rng.Hit(b.pLoadFP)
		data := b.pickSrc(dataFP)
		return isa.Instr{PC: pc, Op: isa.Store, Dest: isa.RegNone, Src1: data, Src2: base, Addr: addr}
	case 2, 3: // integer compute
		op := isa.IntALU
		if kind == 3 {
			op = isa.IntMul
		}
		dest := b.allocDest(false)
		in := isa.Instr{PC: pc, Op: op, Dest: dest, Src1: b.pickSrc(false), Src2: b.maybeSecondSrc(false)}
		b.noteWriter(dest)
		return in
	default: // FP compute
		op := isa.FPAdd
		if kind == 5 {
			op = isa.FPMul
		} else if kind == 6 {
			op = isa.FPDiv
		}
		dest := b.allocDest(true)
		in := isa.Instr{PC: pc, Op: op, Dest: dest, Src1: b.pickSrc(true), Src2: b.maybeSecondSrc(true)}
		b.noteWriter(dest)
		return in
	}
}

// computeScale rescales compute-class weights so, within body slots, compute
// takes the weight left over after (rescaled) loads and stores.
func computeScale(p *Profile) float64 {
	total := p.IntALUW + p.IntMulW + p.FPAddW + p.FPMulW + p.FPDivW
	if total == 0 {
		return 0
	}
	return (1 - (p.LoadFrac+p.StoreFrac)/(1-p.BranchFrac)) / total
}

// maybeSecondSrc returns a second source operand about 60% of the time,
// matching the one- and two-operand mix of real code (this matters for LLRF
// sizing: single-source instructions never allocate an LLRF register).
func (b *Benchmark) maybeSecondSrc(fp bool) isa.Reg {
	if b.rng.Hit(pSecondSrc) {
		return b.pickSrc(fp)
	}
	return isa.RegNone
}

// storeAddr picks a store address; stores reuse the stream and hot patterns.
func (b *Benchmark) storeAddr() (addr uint64, base isa.Reg, chase bool) {
	if b.rng.Hit(pHalf) {
		b.seqAddr += 8
		if b.seqAddr >= dataBase+b.prof.FootprintBytes {
			b.seqAddr = dataBase
		}
		return b.seqAddr, baseReg, false
	}
	off := uint64(b.hotZ.Sample(b.rng)) * 8
	return hotBase + off, baseReg, false
}

// branch generates the block-terminating branch and decides its outcome.
func (b *Benchmark) branch(blk *block, pc uint64) isa.Instr {
	var taken bool
	src := b.pickSrc(false)
	switch blk.kind {
	case brBiased:
		taken = blk.majority
		if !b.rng.Hit(b.pBias) {
			taken = !taken
		}
	case brLoop:
		// Loop branches test an induction variable, which is always
		// ready: a mispredicted loop exit resolves quickly and costs
		// only the pipeline refill.
		src = baseReg
		b.iterLeft[b.cur]--
		taken = b.iterLeft[b.cur] > 0
		if !taken {
			b.iterLeft[b.cur] = blk.period
		}
	case brDataDep:
		// The branch tests loaded data: its source register is the
		// most recent load destination, so when that load missed to
		// memory the branch resolves only after the miss returns.
		src = b.lastLoadDest
		if b.rng.Hit(b.pNoise) {
			taken = b.rng.Hit(pHalf)
		} else {
			taken = blk.majority
		}
	}
	return isa.Instr{PC: pc, Op: isa.Branch, Dest: isa.RegNone, Src1: src, Src2: isa.RegNone, Taken: taken}
}

// advance moves control flow to the next block.
func (b *Benchmark) advance(blk *block, taken bool) {
	if taken {
		b.cur = blk.takenTo
	} else {
		b.cur++
		if b.cur >= len(b.blocks) {
			b.cur = 0
		}
	}
	b.pos = 0
}
