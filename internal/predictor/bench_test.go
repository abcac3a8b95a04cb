package predictor

import (
	"testing"

	"dkip/internal/xrand"
)

var sinkPred bool

// BenchmarkPredictUpdate measures one Predict and its Update, the pair a
// fetched branch costs, over 512 branch sites that each go their own
// majority way 90% of the time. The perceptron is the D-KIP's and the
// out-of-order machines' predictor, gshare the in-order core's.
func BenchmarkPredictUpdate(b *testing.B) {
	r := xrand.New(1)
	type branch struct {
		pc    uint64
		taken bool
	}
	trace := make([]branch, 1<<16)
	for i := range trace {
		site := uint64(r.Intn(512))
		trace[i] = branch{0x40_0000 + site*64, (site%3 != 0) != r.Bool(0.1)}
	}
	for _, p := range []Predictor{NewPerceptron(4096, 24), NewGshare(4096)} {
		b.Run(p.Name(), func(b *testing.B) {
			for _, br := range trace {
				p.Predict(br.pc)
				p.Update(br.pc, br.taken)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br := trace[i&(len(trace)-1)]
				sinkPred = p.Predict(br.pc)
				p.Update(br.pc, br.taken)
			}
		})
	}
}

var sinkPerceptron *Perceptron

// BenchmarkNewPerceptron measures building the D-KIP's and the out-of-order
// machines' predictor, 4,096 perceptrons over 24 history bits, which every
// fresh simulation of those machines pays.
func BenchmarkNewPerceptron(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkPerceptron = NewPerceptron(4096, 24)
	}
}
