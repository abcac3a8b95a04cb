// Package xrand provides a small, fully deterministic pseudo-random number
// generator plus the distributions the workload generators need.
//
// The simulator's results must be bit-reproducible across Go releases, so we
// do not use math/rand (whose unseeded behaviour and algorithms have shifted
// between versions). The generator is SplitMix64 feeding xoshiro256**, the
// same construction used by many simulators; it is tiny, fast, and passes
// BigCrush.
//
// Every draw is defined by a plain floating-point expression over Float64,
// and the fast forms below compute it another way without changing one
// outcome, so a stream drawn through them is the stream drawn through the
// definitions:
//
//   - A Bernoulli trial, Float64() < p, compares x·2^-53 with p, where x is
//     the draw's top 53 bits. Both sides are exact, and x is an integer, so
//     the trial succeeds exactly when x < ceil(p·2^53). Prob holds that
//     integer, computed once, and Hit and GeometricProb compare with it.
//   - GeometricProb steps xoshiro256** on local copies of the four state
//     words, which stay in registers for the whole run of trials, and
//     stores them back once.
//   - Weights holds a Pick weight vector's total, summed once in the order
//     Pick sums it, so it is the same float.
//   - Zipf.Sample raises its base to an exponent near an integer m
//     (s = 0.9 gives 10.000000000000002) by m-fold multiplication instead of
//     math.Pow. The product and math.Pow's result differ by a few parts in
//     10^15; the product stands in only when every value within a relative
//     margin of 1e-9 of it has the same integer part, so the rank is
//     math.Pow's. Near a rank boundary Sample calls math.Pow.
package xrand

import (
	"errors"
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator. The zero value is
// not valid; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via SplitMix64, so any
// seed (including 0) yields a well-mixed state.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
}

// State returns the generator's four state words, for snapshots.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState resumes the generator at state words taken by State. It refuses
// the all-zero state, a fixed point of xoshiro256** that no seed reaches.
func (r *Rand) SetState(s [4]uint64) error {
	if s == ([4]uint64{}) {
		return errors.New("xrand: all-zero state")
	}
	r.s = s
	return nil
}

// Uint64 returns the next 64 pseudo-random bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Prob is a probability prepared for repeated trials: the integer
// ceil(p·2^53), below which a draw's top 53 bits fall exactly when
// Float64() < p on that draw.
type Prob uint64

// NewProb prepares p, which must lie in [0, 1].
func NewProb(p float64) Prob {
	if !(p >= 0 && p <= 1) {
		panic("xrand: probability outside [0,1]")
	}
	return Prob(math.Ceil(p * (1 << 53)))
}

// Hit returns true with probability p: the outcome Bool gives on the same
// draw.
func (r *Rand) Hit(p Prob) bool {
	return r.Uint64()>>11 < uint64(p)
}

// maxGeometric bounds Geometric's result, so a tiny probability cannot
// hang a run.
const maxGeometric = 1 << 20

// Geometric returns a geometrically distributed integer >= 1 with mean
// approximately 1/p: the number of Bool(p) trials up to and including the
// first success, or maxGeometric when that many trials fail. It is used for
// dependence distances and run lengths. p must be in (0, 1].
func (r *Rand) Geometric(p float64) int {
	return r.GeometricProb(NewProb(p))
}

// GeometricProb is Geometric with its probability prepared, which must not
// be zero.
func (r *Rand) GeometricProb(p Prob) int {
	if p == 0 {
		panic("xrand: Geometric probability out of (0,1]")
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	n := 1
	for {
		x := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		if x>>11 < uint64(p) {
			break
		}
		if n++; n >= maxGeometric {
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return n
}

// Pick returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. It panics if the weights sum to zero or less.
func (r *Rand) Pick(weights []float64) int {
	w := Weights{weights, total(weights)}
	return w.Pick(r)
}

// Weights is a weight vector prepared for repeated Pick draws.
type Weights struct {
	w     []float64
	total float64
}

// NewWeights prepares a copy of weights, which must sum to more than zero.
func NewWeights(weights []float64) Weights {
	return Weights{append([]float64(nil), weights...), total(weights)}
}

// Pick draws an index as Rand.Pick does with the same draw.
func (w *Weights) Pick(r *Rand) int {
	x := r.Float64() * w.total
	for i, wi := range w.w {
		x -= wi
		if x < 0 {
			return i
		}
	}
	return len(w.w) - 1
}

// total sums weights in Pick's order and panics unless the sum is positive.
func total(weights []float64) float64 {
	var t float64
	for _, w := range weights {
		t += w
	}
	if t <= 0 {
		panic("xrand: Pick with non-positive total weight")
	}
	return t
}

// Zipf is a Zipf-like distribution over [0, n) with exponent s. Rather
// than an exact inverse CDF over a precomputed table, which is overkill
// here, it uses the standard two-level approximation that is adequate for
// address-stream skew: rank = floor(n * u^(1/(1-s))) clamped. For s near 1
// this still concentrates mass on low ranks, which is the only property the
// workload models rely on. A Zipf holds the constants every draw shares, so
// a draw costs at most one math.Pow, and none when its exponent is near an
// integer and the rank is not near a boundary (see the package comment).
type Zipf struct {
	n   int
	exp float64 // 1/(1-s)
	x   float64 // n^(1-s)
	m   int     // exp rounded to an integer, or 0 when it is not near one
}

const (
	// intExpTol is how near an integer Zipf's exponent must be for Sample
	// to multiply instead of calling math.Pow, and maxIntExp bounds that
	// integer. Together they bound the product's distance from math.Pow's
	// result far below rankMargin: the m-fold product rounds to within
	// 2m·2^-53 of base^m, base^exp is within intExpTol·ln(n) of it, and
	// math.Pow is within a few units in the last place of base^exp.
	intExpTol = 1e-12
	maxIntExp = 64
	// rankMargin is the relative distance from the product within which
	// every value must floor to the same rank for Sample to use it.
	rankMargin = 1e-9
)

// NewZipf prepares the distribution over [0, n) with exponent s.
func NewZipf(n int, s float64) Zipf {
	z := Zipf{n: n, exp: 1.0 / (1.0 - s), x: math.Pow(float64(n), 1.0-s)}
	if m := math.Round(z.exp); m >= 1 && m <= maxIntExp && math.Abs(z.exp-m) <= intExpTol {
		z.m = int(m)
	}
	return z
}

// Sample draws one rank from z using r.
func (z *Zipf) Sample(r *Rand) int {
	n := z.n
	if n <= 1 {
		return 0
	}
	u := r.Float64()
	if u == 0 {
		u = 0.5 / float64(n)
	}
	// Inverse of the continuous Pareto CDF restricted to [1, n].
	base := u*(z.x-1.0) + 1.0
	v, ok := z.floorPow(base)
	if !ok {
		v = int(math.Pow(base, z.exp))
	}
	idx := v - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// floorPow returns int(math.Pow(base, z.exp)) without calling math.Pow,
// and true, when base^m by multiplication settles it: every value within
// rankMargin of the product has the same integer part, so math.Pow's
// result, far nearer than that, has it too. Otherwise it returns false.
func (z *Zipf) floorPow(base float64) (int, bool) {
	if z.m == 0 {
		return 0, false
	}
	w := 1.0
	for m := z.m; ; base *= base {
		if m&1 != 0 {
			w *= base
		}
		if m >>= 1; m == 0 {
			break
		}
	}
	lo := int(w * (1 - rankMargin))
	return lo, lo == int(w*(1+rankMargin))
}
