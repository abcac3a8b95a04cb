// Package workload provides deterministic synthetic instruction-stream
// generators standing in for the SPEC2000 benchmarks the paper simulates.
//
// Each of the 26 SPEC2000 programs is described by a Profile: instruction
// mix, memory footprint and access-pattern mixture (streaming, strided,
// cache-resident hot region, pointer chasing), dependence-distance
// distribution (instruction-level parallelism), and static branch population
// (biased, loop, and load-dependent branches). The profiles are tuned so the
// aggregate behaviour of the two suites matches the published character of
// SPEC2000: floating-point codes have predictable branches, large streaming
// footprints and high ILP; integer codes have branchy control flow, pointer
// chasing, and branches whose outcome depends on recently loaded data.
//
// Absolute IPC is not expected to match the paper (different binaries,
// different compiler); the suite-level *shapes* of every figure are.
package workload

import (
	"fmt"
	"math"
	"reflect"
	"sort"
)

// Suite labels the benchmark suite a profile belongs to.
type Suite uint8

// Benchmark suites.
const (
	// SpecINT is the integer suite (12 programs).
	SpecINT Suite = iota
	// SpecFP is the floating-point suite (14 programs).
	SpecFP
)

// String names the suite as in the paper's figures.
func (s Suite) String() string {
	if s == SpecINT {
		return "SpecINT"
	}
	return "SpecFP"
}

// Profile is the statistical description of one benchmark.
type Profile struct {
	// Name is the SPEC2000 program name (e.g. "mcf").
	Name string
	// Suite is SpecINT or SpecFP.
	Suite Suite

	// Instruction mix weights; they need not sum to 1, Pick normalizes.
	// The remaining weight after Load/Store/Branch is compute, split
	// among the compute classes below.
	LoadFrac, StoreFrac, BranchFrac          float64
	IntALUW, IntMulW, FPAddW, FPMulW, FPDivW float64
	// LoadFPFrac is the fraction of loads whose destination is an FP
	// register (FP loads feed the FP cluster and the FP LLIB).
	LoadFPFrac float64

	// FootprintBytes is the total data footprint walked by streaming,
	// strided and chasing accesses. HotBytes is a small, cache-resident
	// region receiving the "hot" accesses.
	FootprintBytes, HotBytes uint64
	// Access-pattern weights for loads (and stores, which reuse the
	// stream/hot patterns).
	PatStream, PatStride, PatHot, PatChase float64
	// StrideBytes is the stride of the strided pattern.
	StrideBytes uint64
	// ChaseChainLen is the mean length of a pointer chain: after about
	// this many dependent loads the traversal restarts from a fresh,
	// already-available head pointer. Short chains keep memory-level
	// parallelism available to large windows; one endless chain would
	// serialize the whole program.
	ChaseChainLen int

	// MeanDepDist is the mean backwards distance, in preceding register
	// writers, from a consumer to its producer. Small = serial code,
	// large = high ILP.
	MeanDepDist float64

	// Static branch-kind weights: biased (mostly one way), loop
	// (pattern of N-1 taken then 1 not-taken), and data-dependent
	// (outcome derived from recently loaded data).
	BrBiased, BrLoop, BrDataDep float64
	// BrBias is the probability a biased branch goes its majority way.
	BrBias float64
	// DataDepNoise is the probability a data-dependent branch's outcome
	// is random on a given execution (the unpredictable fraction).
	DataDepNoise float64
	// LoopPeriodMean is the mean loop trip count of loop branches.
	LoopPeriodMean int

	// NumBlocks is the number of static basic blocks. Mean block length
	// follows from BranchFrac (one branch terminates each block).
	NumBlocks int

	// Seed makes every run of this profile reproducible.
	Seed uint64
}

// Validate reports an error for out-of-range parameters. Every float field
// is a fraction, a weight, a probability or a mean distance, so each must
// first be finite and not negative; the range checks after that one never
// see a NaN, which would pass them.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile with empty name")
	}
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 {
			if x := f.Float(); !(x >= 0 && x <= math.MaxFloat64) {
				return fmt.Errorf("workload: %s: %s %v is not a finite number >= 0", p.Name, v.Type().Field(i).Name, x)
			}
		}
	}
	frac := p.LoadFrac + p.StoreFrac + p.BranchFrac
	if frac <= 0 || frac >= 1 {
		return fmt.Errorf("workload: %s: load+store+branch fraction %.2f out of (0,1)", p.Name, frac)
	}
	if p.IntALUW+p.IntMulW+p.FPAddW+p.FPMulW+p.FPDivW <= 0 {
		return fmt.Errorf("workload: %s: no compute weight", p.Name)
	}
	if p.PatStream+p.PatStride+p.PatHot+p.PatChase <= 0 {
		return fmt.Errorf("workload: %s: no load pattern weight", p.Name)
	}
	if p.BrBiased+p.BrLoop+p.BrDataDep <= 0 {
		return fmt.Errorf("workload: %s: no branch kind weight", p.Name)
	}
	if p.FootprintBytes < 4096 {
		return fmt.Errorf("workload: %s: footprint %d too small", p.Name, p.FootprintBytes)
	}
	if p.MeanDepDist < 1 {
		return fmt.Errorf("workload: %s: mean dependence distance %.2f < 1", p.Name, p.MeanDepDist)
	}
	if p.ChaseChainLen < 1 {
		return fmt.Errorf("workload: %s: chase chain length %d < 1", p.Name, p.ChaseChainLen)
	}
	if p.LoopPeriodMean < 1 {
		return fmt.Errorf("workload: %s: mean loop trip count %d < 1", p.Name, p.LoopPeriodMean)
	}
	if p.NumBlocks < 2 {
		return fmt.Errorf("workload: %s: degenerate code layout", p.Name)
	}
	if p.BranchFrac <= 0 {
		return fmt.Errorf("workload: %s: no branches", p.Name)
	}
	if p.BranchFrac > 0.34 {
		return fmt.Errorf("workload: %s: branch fraction %.2f implies blocks shorter than 3", p.Name, p.BranchFrac)
	}
	if p.BrBias < 0.5 || p.BrBias > 1 {
		return fmt.Errorf("workload: %s: branch bias %.2f out of [0.5,1]", p.Name, p.BrBias)
	}
	if p.LoadFPFrac > 1 || p.DataDepNoise > 1 {
		return fmt.Errorf("workload: %s: FP load fraction %.2f or data-dependent noise %.2f above 1", p.Name, p.LoadFPFrac, p.DataDepNoise)
	}
	return nil
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// intProfile fills in fields shared by typical integer codes, then applies
// overrides via the modify callback.
func intProfile(name string, seed uint64, modify func(*Profile)) Profile {
	p := Profile{
		Name: name, Suite: SpecINT,
		LoadFrac: 0.24, StoreFrac: 0.10, BranchFrac: 0.14,
		IntALUW: 0.96, IntMulW: 0.04,
		LoadFPFrac:     0.02,
		FootprintBytes: 512 * kb, HotBytes: 16 * kb,
		PatStream: 0.28, PatStride: 0.02, PatHot: 0.62, PatChase: 0.08,
		StrideBytes: 192, ChaseChainLen: 5,
		MeanDepDist: 3.5,
		BrBiased:    0.55, BrLoop: 0.25, BrDataDep: 0.20,
		BrBias: 0.94, DataDepNoise: 0.35, LoopPeriodMean: 12,
		NumBlocks: 512,
		Seed:      seed,
	}
	if modify != nil {
		modify(&p)
	}
	return p
}

// fpProfile fills in fields shared by typical floating-point codes.
func fpProfile(name string, seed uint64, modify func(*Profile)) Profile {
	p := Profile{
		Name: name, Suite: SpecFP,
		LoadFrac: 0.28, StoreFrac: 0.08, BranchFrac: 0.05,
		IntALUW: 0.30, IntMulW: 0.01, FPAddW: 0.42, FPMulW: 0.26, FPDivW: 0.005,
		LoadFPFrac:     0.85,
		FootprintBytes: 8 * mb, HotBytes: 24 * kb,
		PatStream: 0.72, PatStride: 0.04, PatHot: 0.22, PatChase: 0.02,
		StrideBytes: 320, ChaseChainLen: 2,
		MeanDepDist: 9,
		BrBiased:    0.30, BrLoop: 0.65, BrDataDep: 0.05,
		BrBias: 0.985, DataDepNoise: 0.10, LoopPeriodMean: 48,
		NumBlocks: 192,
		Seed:      seed,
	}
	if modify != nil {
		modify(&p)
	}
	return p
}

// profiles holds the 26 SPEC2000 stand-ins, keyed by program name.
var profiles = map[string]Profile{
	// ---- SpecINT (12) ----
	"bzip2": intProfile("bzip2", 0xb21b2001, func(p *Profile) {
		p.FootprintBytes = 1 * mb
		p.HotBytes = 48 * kb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.10, 0.01, 0.855, 0.035
		p.ChaseChainLen = 3
		p.BrBias = 0.95
	}),
	"crafty": intProfile("crafty", 0xc4af7102, func(p *Profile) {
		p.FootprintBytes = 256 * kb
		p.HotBytes = 32 * kb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.22, 0, 0.76, 0.02
		p.ChaseChainLen = 3
		p.BranchFrac = 0.16
		p.BrDataDep = 0.25
		p.DataDepNoise = 0.30
		p.MeanDepDist = 4.5
	}),
	"eon": intProfile("eon", 0xe0e0e003, func(p *Profile) {
		p.FootprintBytes = 128 * kb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.21, 0, 0.78, 0.01
		p.ChaseChainLen = 2
		p.LoadFPFrac = 0.25 // C++ graphics: some FP
		p.FPAddW, p.FPMulW = 0.15, 0.08
		p.BrBias = 0.96
		p.DataDepNoise = 0.18
	}),
	"gap": intProfile("gap", 0x9a9a0004, func(p *Profile) {
		p.FootprintBytes = 1 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.12, 0, 0.85, 0.03
		p.ChaseChainLen = 4
		p.MeanDepDist = 4
	}),
	"gcc": intProfile("gcc", 0x9cc00005, func(p *Profile) {
		p.FootprintBytes = 2 * mb
		p.NumBlocks = 2048 // big, irregular code
		p.BranchFrac = 0.17
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.10, 0, 0.87, 0.03
		p.ChaseChainLen = 4
		p.BrDataDep = 0.28
		p.DataDepNoise = 0.30
		p.MeanDepDist = 3.2
	}),
	"gzip": intProfile("gzip", 0x92190006, func(p *Profile) {
		p.FootprintBytes = 256 * kb
		p.HotBytes = 64 * kb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.37, 0, 0.62, 0.01
		p.ChaseChainLen = 2
		p.BrBias = 0.95
	}),
	"mcf": intProfile("mcf", 0x3cf00007, func(p *Profile) {
		p.FootprintBytes = 16 * mb // famously memory-bound
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.18, 0.02, 0.69, 0.11
		p.ChaseChainLen = 10
		p.BrDataDep = 0.35
		p.DataDepNoise = 0.28
		p.MeanDepDist = 3
		p.LoadFrac = 0.30
	}),
	"parser": intProfile("parser", 0x9a45e008, func(p *Profile) {
		p.FootprintBytes = 4 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.08, 0, 0.89, 0.03
		p.ChaseChainLen = 6
		p.BrDataDep = 0.30
		p.DataDepNoise = 0.32
		p.MeanDepDist = 3
	}),
	"perlbmk": intProfile("perlbmk", 0x9e410009, func(p *Profile) {
		p.FootprintBytes = 448 * kb
		p.NumBlocks = 1536
		p.BranchFrac = 0.16
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.36, 0, 0.60, 0.04
		p.ChaseChainLen = 3
		p.DataDepNoise = 0.25
	}),
	"twolf": intProfile("twolf", 0x7201f00a, func(p *Profile) {
		p.FootprintBytes = 1 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.10, 0, 0.85, 0.05
		p.ChaseChainLen = 6
		p.BrDataDep = 0.30
		p.DataDepNoise = 0.30
		p.MeanDepDist = 3.2
	}),
	"vortex": intProfile("vortex", 0x501e700b, func(p *Profile) {
		p.FootprintBytes = 2 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.12, 0, 0.85, 0.03
		p.ChaseChainLen = 4
		p.BrBias = 0.96
		p.DataDepNoise = 0.20
	}),
	"vpr": intProfile("vpr", 0x59900c0c, func(p *Profile) {
		p.FootprintBytes = 1 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.10, 0, 0.86, 0.04
		p.ChaseChainLen = 5
		p.BrDataDep = 0.28
		p.DataDepNoise = 0.30
	}),

	// ---- SpecFP (14) ----
	"ammp": fpProfile("ammp", 0xa3390101, func(p *Profile) {
		p.FootprintBytes = 12 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.13, 0.005, 0.845, 0.02 // neighbour lists
		p.ChaseChainLen = 3
		p.MeanDepDist = 7
	}),
	"applu": fpProfile("applu", 0xa9910102, func(p *Profile) {
		p.FootprintBytes = 24 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.19, 0.005, 0.805, 0
		p.MeanDepDist = 10
	}),
	"apsi": fpProfile("apsi", 0xa9510103, func(p *Profile) {
		p.FootprintBytes = 3 * mb // resident once the L2 reaches 4MB
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.10, 0, 0.90, 0
	}),
	"art": fpProfile("art", 0xa4700104, func(p *Profile) {
		p.FootprintBytes = 4 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.90, 0.02, 0.08, 0
		p.LoadFrac = 0.33 // neural-net scans: extremely memory-bound
		p.MeanDepDist = 11
		p.BranchFrac = 0.08
	}),
	"equake": fpProfile("equake", 0xe9a4e105, func(p *Profile) {
		p.FootprintBytes = 12 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.20, 0, 0.785, 0.015 // sparse rows
		p.ChaseChainLen = 2
	}),
	"facerec": fpProfile("facerec", 0xface0106, func(p *Profile) {
		p.FootprintBytes = 3 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.12, 0, 0.88, 0
	}),
	"fma3d": fpProfile("fma3d", 0xf3a30107, func(p *Profile) {
		p.FootprintBytes = 12 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.15, 0, 0.84, 0.01
		p.ChaseChainLen = 2
		p.MeanDepDist = 8
	}),
	"galgel": fpProfile("galgel", 0x9a19e108, func(p *Profile) {
		p.FootprintBytes = 3 * mb // largely cache-resident at big L2s
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.08, 0, 0.92, 0
		p.MeanDepDist = 10
	}),
	"lucas": fpProfile("lucas", 0x10ca5109, func(p *Profile) {
		p.FootprintBytes = 16 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.17, 0.01, 0.82, 0 // FFT strides
		p.StrideBytes = 1024
		p.MeanDepDist = 9
	}),
	"mesa": fpProfile("mesa", 0x3e5a010a, func(p *Profile) {
		p.FootprintBytes = 192 * kb // rendering, cache-friendly
		p.HotBytes = 64 * kb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.40, 0, 0.60, 0
		p.BranchFrac = 0.09
		p.BrBiased, p.BrLoop = 0.50, 0.45
	}),
	"mgrid": fpProfile("mgrid", 0x39d1010b, func(p *Profile) {
		p.FootprintBytes = 24 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.18, 0.005, 0.815, 0
		p.MeanDepDist = 11
	}),
	"sixtrack": fpProfile("sixtrack", 0x51c7010c, func(p *Profile) {
		p.FootprintBytes = 320 * kb // compute-bound tracking loops
		p.HotBytes = 96 * kb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.34, 0, 0.66, 0
		p.MeanDepDist = 8
	}),
	"swim": fpProfile("swim", 0x5013010d, func(p *Profile) {
		p.FootprintBytes = 32 * mb // the classic bandwidth hog
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.44, 0.005, 0.555, 0
		p.LoadFrac = 0.30
		p.MeanDepDist = 12
	}),
	"wupwise": fpProfile("wupwise", 0x30b1010e, func(p *Profile) {
		p.FootprintBytes = 12 * mb
		p.PatStream, p.PatStride, p.PatHot, p.PatChase = 0.09, 0.003, 0.907, 0
		p.MeanDepDist = 9
	}),
}

// Names returns all benchmark names, SpecINT first then SpecFP, each suite
// alphabetical — the order used in the paper's per-benchmark figures.
func Names() []string {
	var ints, fps []string
	for n, p := range profiles {
		if p.Suite == SpecINT {
			ints = append(ints, n)
		} else {
			fps = append(fps, n)
		}
	}
	sort.Strings(ints)
	sort.Strings(fps)
	return append(ints, fps...)
}

// SuiteNames returns the benchmark names of one suite, alphabetical.
func SuiteNames(s Suite) []string {
	var out []string
	for n, p := range profiles {
		if p.Suite == s {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Lookup returns the profile for a benchmark name.
func Lookup(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}
