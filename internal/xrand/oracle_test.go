package xrand_test

import (
	"fmt"
	"math"
	"testing"

	"dkip/internal/workload"
	"dkip/internal/xrand"
)

// The reference implementations below are the straightforward versions of
// the draws the workload generator makes, one Float64 per Bernoulli trial
// and one math.Pow per Zipf rank. The oracles run them beside the package's
// own draws from equal states and require the same result and the same
// state after every draw, so the package may compute its draws any way that
// leaves every stream unchanged.

func refBool(r *xrand.Rand, p float64) bool {
	return r.Float64() < p
}

func refGeometric(r *xrand.Rand, p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric probability out of (0,1]")
	}
	n := 1
	for !refBool(r, p) {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}

func refPick(r *xrand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("xrand: Pick with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// refZipf is NewZipf(n, s) drawn with one math.Pow per rank.
type refZipf struct {
	n      int
	exp, x float64
}

func newRefZipf(n int, s float64) refZipf {
	return refZipf{n: n, exp: 1.0 / (1.0 - s), x: math.Pow(float64(n), 1.0-s)}
}

func (z refZipf) sample(r *xrand.Rand) int {
	n := z.n
	if n <= 1 {
		return 0
	}
	u := r.Float64()
	if u == 0 {
		u = 0.5 / float64(n)
	}
	v := math.Pow(u*(z.x-1.0)+1.0, z.exp)
	idx := int(v) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// oracleDraws is how many draws each oracle compares per parameter.
func oracleDraws() int {
	if testing.Short() || raceEnabled {
		return 100_000
	}
	return 10_000_000
}

// builtinDraws lists the parameters the built-in workload profiles draw
// with, as workload.Benchmark derives them: the Geometric and Bool
// probabilities, the Pick weight vectors and the Zipf hot-region sizes,
// each once, in profile order.
type builtinDraws struct {
	geo, bern []float64
	pick      [][]float64
	zipf      []int
}

func builtins() builtinDraws {
	var d builtinDraws
	seen := map[string]bool{}
	once := func(kind string, v any) bool {
		k := fmt.Sprint(kind, v)
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	geo := func(ps ...float64) {
		for _, p := range ps {
			if once("geo", p) {
				d.geo = append(d.geo, p)
			}
		}
	}
	bern := func(ps ...float64) {
		for _, p := range ps {
			if once("bern", p) {
				d.bern = append(d.bern, p)
			}
		}
	}
	pick := func(w ...float64) {
		if once("pick", w) {
			d.pick = append(d.pick, w)
		}
	}
	for _, name := range workload.Names() {
		p, _ := workload.Lookup(name)
		// The static code layout.
		geo(1/(1/p.BranchFrac), 1/float64(p.LoopPeriodMean))
		pick(p.BrBiased, p.BrLoop, p.BrDataDep)
		bern(0.7)
		// The dynamic stream.
		geo(1/p.MeanDepDist, 1/float64(p.ChaseChainLen))
		bern(p.LoadFPFrac, 0.6, 0.5, p.BrBias, p.DataDepNoise)
		bodyLoad := p.LoadFrac / (1 - p.BranchFrac)
		bodyStore := p.StoreFrac / (1 - p.BranchFrac)
		cs := (1 - (p.LoadFrac+p.StoreFrac)/(1-p.BranchFrac)) / (p.IntALUW + p.IntMulW + p.FPAddW + p.FPMulW + p.FPDivW)
		pick(bodyLoad, bodyStore, p.IntALUW*cs, p.IntMulW*cs, p.FPAddW*cs, p.FPMulW*cs, p.FPDivW*cs)
		pick(p.PatStream, p.PatStride, p.PatHot, p.PatChase)
		if n := int(p.HotBytes / 8); once("zipf", n) {
			d.zipf = append(d.zipf, n)
		}
	}
	return d
}

// triplets returns three generators of one seed: one for the reference,
// one for the package's plain draw and one for its prepared form.
func triplets(seed uint64) (ref, plain, prepared *xrand.Rand) {
	return xrand.New(seed), xrand.New(seed), xrand.New(seed)
}

// inStep reports whether the generators stand at one state.
func inStep(ref, plain, prepared *xrand.Rand) bool {
	return ref.State() == plain.State() && ref.State() == prepared.State()
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func TestBoolOracle(t *testing.T) {
	t.Parallel()
	n := oracleDraws()
	ps := append(builtins().bern, 0, 1, math.SmallestNonzeroFloat64, 1e-300, 0.3, math.Nextafter(1, 0))
	for i, p := range ps {
		prob := xrand.NewProb(p)
		a, b, c := triplets(uint64(i))
		for k := 0; k < n; k++ {
			want, plain, prepared := refBool(a, p), b.Bool(p), c.Hit(prob)
			if plain != want || prepared != want || !inStep(a, b, c) {
				t.Fatalf("draw %d with p = %v: Bool %v, Hit %v, reference %v", k, p, plain, prepared, want)
			}
		}
	}
	for _, p := range []float64{math.NaN(), -0.1, math.Nextafter(1, 2), math.Inf(-1)} {
		if !panics(func() { xrand.NewProb(p) }) {
			t.Errorf("NewProb(%v) did not panic", p)
		}
	}
}

// TestGeometricOracle compares n uniform draws per probability: a
// Geometric result counts the draws it took, one more than it took when
// it stops at the cap.
func TestGeometricOracle(t *testing.T) {
	t.Parallel()
	n := oracleDraws()
	ps := append(builtins().geo, 1, 0.25, math.Nextafter(1, 0),
		// Draws that nearly always run to the cap, each about a million
		// uniforms.
		math.SmallestNonzeroFloat64, 1e-300, 1e-9)
	for i, p := range ps {
		prob := xrand.NewProb(p)
		a, b, c := triplets(uint64(i))
		for k, drawn := 0, 0; drawn < n; k++ {
			want, plain, prepared := refGeometric(a, p), b.Geometric(p), c.GeometricProb(prob)
			if plain != want || prepared != want || !inStep(a, b, c) {
				t.Fatalf("draw %d with p = %v: Geometric %d, GeometricProb %d, reference %d", k, p, plain, prepared, want)
			}
			drawn += want
		}
	}
	for _, p := range []float64{0, -1, math.Nextafter(1, 2), math.Inf(1), math.NaN()} {
		if !panics(func() { xrand.New(1).Geometric(p) }) {
			t.Errorf("Geometric(%v) did not panic", p)
		}
	}
	if !panics(func() { xrand.New(1).GeometricProb(xrand.NewProb(0)) }) {
		t.Error("GeometricProb(NewProb(0)) did not panic")
	}
}

func TestPickOracle(t *testing.T) {
	t.Parallel()
	n := oracleDraws()
	ws := append(builtins().pick, []float64{1, 2, 1}, []float64{0, 1, 0}, []float64{5}, []float64{0.1, 0.2, 0.3, 0.4})
	for i, w := range ws {
		weights := xrand.NewWeights(w)
		a, b, c := triplets(uint64(i))
		for k := 0; k < n; k++ {
			want, plain, prepared := refPick(a, w), b.Pick(w), weights.Pick(c)
			if plain != want || prepared != want || !inStep(a, b, c) {
				t.Fatalf("draw %d with weights %v: Pick %d, Weights.Pick %d, reference %d", k, w, plain, prepared, want)
			}
		}
	}
	for _, w := range [][]float64{nil, {0, 0}, {1, -1}} {
		if !panics(func() { xrand.NewWeights(w) }) {
			t.Errorf("NewWeights(%v) did not panic", w)
		}
	}
}

// drawing returns a generator state whose next Uint64 is out. A
// xoshiro256** output depends only on the second state word, through an
// odd multiply, a rotation and another odd multiply, so that word is
// solved for; the other words are arbitrary but keep the state non-zero.
func drawing(out uint64) [4]uint64 {
	inv := func(a uint64) uint64 { // a⁻¹ mod 2^64 for odd a, by Newton's iteration
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	s1 := out * inv(9)
	s1 = s1>>7 | s1<<57
	return [4]uint64{0x9e3779b97f4a7c15, s1 * inv(5), 1, 2}
}

func TestDrawing(t *testing.T) {
	r := xrand.New(1)
	for _, out := range []uint64{0, 1, 1 << 11, math.MaxUint64, 0x0123456789abcdef} {
		if err := r.SetState(drawing(out)); err != nil {
			t.Fatal(err)
		}
		if got := r.Uint64(); got != out {
			t.Errorf("drawing(%#x) drew %#x", out, got)
		}
	}
}

// zipfProbes calls probe with every 53-bit uniform within reach steps of
// the point where NewZipf(n, 0.9)'s power crosses edge times each rank
// boundary; at edge 1 that is where it crosses an integer. In -short mode
// and under the race detector it probes every 64th boundary.
func zipfProbes(n int, edge float64, reach int64, probe func(u53 uint64)) {
	z := newRefZipf(n, 0.9)
	step := 1
	if testing.Short() || raceEnabled {
		step = 64
	}
	for k := 2; k <= n; k += step {
		u := (math.Pow(float64(k)*edge, 1/z.exp) - 1) / (z.x - 1)
		at := int64(u * (1 << 53))
		for g := at - reach; g <= at+reach; g++ {
			if g >= 0 && g < 1<<53 {
				probe(uint64(g))
			}
		}
	}
}

func TestZipfOracle(t *testing.T) {
	t.Parallel()
	// Random draws: 2·10^7 over the built-in hot regions, and a few other
	// sizes.
	sizes := builtins().zipf
	for i, size := range append(sizes, 2, 3, 64, 1000) {
		n := 2 * oracleDraws() / len(sizes)
		if i >= len(sizes) {
			n = oracleDraws() / 100
		}
		z, ref := xrand.NewZipf(size, 0.9), newRefZipf(size, 0.9)
		a, b := xrand.New(uint64(i)), xrand.New(uint64(i))
		for k := 0; k < n; k++ {
			if got, want := z.Sample(b), ref.sample(a); got != want || a.State() != b.State() {
				t.Fatalf("draw %d from Zipf(%d): Sample %d, reference %d", k, size, got, want)
			}
		}
	}
	// Every rank boundary of every built-in hot region, at ±64 steps of
	// the uniforms' 53-bit grid, and the same around both edges of the
	// margin within which Sample calls math.Pow.
	a, b := xrand.New(1), xrand.New(1)
	for _, edge := range []float64{1, 1 / (1 + xrand.RankMargin), 1 / (1 - xrand.RankMargin)} {
		probes, fallbacks := 0, 0
		for _, size := range sizes {
			z, ref := xrand.NewZipf(size, 0.9), newRefZipf(size, 0.9)
			zipfProbes(size, edge, 64, func(u53 uint64) {
				probes++
				if _, ok := xrand.FloorPow(&z, float64(u53)/(1<<53)*(ref.x-1.0)+1.0); !ok {
					fallbacks++
				}
				s := drawing(u53 << 11)
				a.SetState(s)
				b.SetState(s)
				if got, want := z.Sample(b), ref.sample(a); got != want {
					t.Fatalf("Zipf(%d).Sample at uniform %d/2^53 = %d, reference %d", size, u53, got, want)
				}
			})
		}
		t.Logf("%d probes at %v of each rank boundary, %d of them through math.Pow", probes, edge, fallbacks)
		if fallbacks == 0 {
			t.Errorf("no probe at %v of a rank boundary called math.Pow", edge)
		}
		if edge != 1 && fallbacks == probes {
			t.Errorf("every probe at %v of a rank boundary called math.Pow", edge)
		}
	}
}
