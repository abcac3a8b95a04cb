package workload

import (
	"testing"

	"dkip/internal/isa"
)

var sinkInstr isa.Instr

// BenchmarkNext measures the generator alone, per instruction: on three
// benchmarks of the sampled sweep, and round-robin over all 26, one
// instruction from each in turn.
func BenchmarkNext(b *testing.B) {
	for _, set := range []struct {
		name    string
		benches []string
	}{
		{"crafty", []string{"crafty"}},
		{"mcf", []string{"mcf"}},
		{"swim", []string{"swim"}},
		{"all", Names()},
	} {
		b.Run(set.name, func(b *testing.B) {
			gens := make([]*Benchmark, len(set.benches))
			for i, name := range set.benches {
				gens[i] = MustNew(name)
			}
			b.ResetTimer()
			for i, g := 0, 0; i < b.N; i++ {
				sinkInstr = gens[g].Next()
				if g++; g == len(gens) {
					g = 0
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/instr")
		})
	}
}
