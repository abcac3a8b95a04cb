package xrand_test

import (
	"testing"

	"dkip/internal/xrand"
)

var sinkInt int

// The draws the workload generator makes most, each as the generator makes
// it: Geometric at a dependence-distance probability (1/3.5, the integer
// profiles' default), Zipf over a 4,096-word hot region, and Pick over a
// seven-class body mix.

func BenchmarkGeometric(b *testing.B) {
	r, p := xrand.New(1), xrand.NewProb(1/3.5)
	for i := 0; i < b.N; i++ {
		sinkInt = r.GeometricProb(p)
	}
}

func BenchmarkZipfSample(b *testing.B) {
	r, z := xrand.New(1), xrand.NewZipf(4096, 0.9)
	for i := 0; i < b.N; i++ {
		sinkInt = z.Sample(r)
	}
}

func BenchmarkPick(b *testing.B) {
	r := xrand.New(1)
	w := xrand.NewWeights([]float64{0.28, 0.12, 0.58, 0.02, 0, 0, 0})
	for i := 0; i < b.N; i++ {
		sinkInt = w.Pick(r)
	}
}
