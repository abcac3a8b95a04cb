// Package xrand provides a small, fully deterministic pseudo-random number
// generator plus the distributions the workload generators need.
//
// The simulator's results must be bit-reproducible across Go releases, so we
// do not use math/rand (whose unseeded behaviour and algorithms have shifted
// between versions). The generator is SplitMix64 feeding xoshiro256**, the
// same construction used by many simulators; it is tiny, fast, and passes
// BigCrush.
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

// Geometric returns a geometrically distributed integer >= 1 with mean
// approximately 1/p. It is used for dependence distances and run lengths.
// p must be in (0, 1].
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric probability out of (0,1]")
	}
	n := 1
	for !r.Bool(p) {
		n++
		// Bound pathological tails so a bad parameter cannot hang a run.
		if n >= 1<<20 {
			break
		}
	}
	return n
}

// Pick returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. It panics if the weights sum to zero or less.
func (r *Rand) Pick(weights []float64) int {
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

// Zipf is a Zipf-like distribution over [0, n) with exponent s. Rather
// than an exact inverse CDF over a precomputed table, which is overkill
// here, it uses the standard two-level approximation that is adequate for
// address-stream skew: rank = floor(n * u^(1/(1-s))) clamped. For s near 1
// this still concentrates mass on low ranks, which is the only property the
// workload models rely on. A Zipf holds the constants every draw shares, so
// a draw costs one math.Pow.
type Zipf struct {
	n   int
	exp float64 // 1/(1-s)
	x   float64 // n^(1-s)
}

// NewZipf prepares the distribution over [0, n) with exponent s.
func NewZipf(n int, s float64) Zipf {
	return Zipf{n: n, exp: 1.0 / (1.0 - s), x: math.Pow(float64(n), 1.0-s)}
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
