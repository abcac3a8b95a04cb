package predictor

// Perceptron implements the perceptron branch predictor of Jiménez & Lin
// ("Dynamic Branch Prediction with Perceptrons", HPCA 2001), the predictor
// the paper's Cache Processor uses (Table 2).
//
// Each branch PC hashes to a perceptron: a vector of signed weights, one per
// global-history bit plus a bias. The prediction is the sign of the dot
// product of the weights with the history (±1 per bit). Training adjusts the
// weights when the prediction was wrong or the output magnitude was below the
// threshold θ = ⌊1.93·h + 14⌋, the value derived in the original paper.
type Perceptron struct {
	// weights holds every perceptron in one table, row by row: entry i's
	// bias and history weights are weights[i*(histLen+1) : (i+1)*(histLen+1)].
	weights []int16
	history []int8 // global history as ±1 values, index 0 = most recent
	histLen int
	mask    uint64
	theta   int32

	// lastOutput memoizes Predict's dot product for the matching Update,
	// avoiding recomputation; trace-driven callers alternate
	// Predict/Update per branch.
	lastOutput int32
	lastIndex  uint64
	lastValid  bool
}

// NewPerceptron builds a perceptron predictor with the given number of
// perceptrons (rounded up to a power of two, minimum 16) and history length.
func NewPerceptron(entries, histLen int) *Perceptron {
	if histLen <= 0 {
		histLen = 24
	}
	n := 16
	for n < entries {
		n <<= 1
	}
	p := &Perceptron{
		histLen: histLen,
		mask:    uint64(n - 1),
		theta:   int32(1.93*float64(histLen) + 14),
	}
	p.weights = make([]int16, n*(histLen+1))
	p.history = make([]int8, histLen)
	p.Reset()
	return p
}

// HistoryLength returns the configured global history length.
func (p *Perceptron) HistoryLength() int { return p.histLen }

func (p *Perceptron) index(pc uint64) uint64 { return (pc >> 2) & p.mask }

// row returns the weights of perceptron idx: the bias, then one weight per
// history bit.
func (p *Perceptron) row(idx uint64) []int16 {
	n := uint64(p.histLen + 1)
	return p.weights[idx*n : idx*n+n]
}

// entries returns the number of perceptrons.
func (p *Perceptron) entries() int { return len(p.weights) / (p.histLen + 1) }

func (p *Perceptron) output(idx uint64) int32 {
	w := p.row(idx)
	y := int32(w[0]) // bias sees a constant +1 input
	for i := 0; i < p.histLen; i++ {
		y += int32(w[i+1]) * int32(p.history[i])
	}
	return y
}

// Predict returns true (taken) when the perceptron output is non-negative.
func (p *Perceptron) Predict(pc uint64) bool {
	idx := p.index(pc)
	y := p.output(idx)
	p.lastOutput = y
	p.lastIndex = idx
	p.lastValid = true
	return y >= 0
}

const weightMax = 127 // keep weights in a signed byte's range as in hardware

// Update trains the perceptron with the actual outcome and shifts it into
// the global history.
func (p *Perceptron) Update(pc uint64, taken bool) {
	idx := p.index(pc)
	var y int32
	if p.lastValid && p.lastIndex == idx {
		y = p.lastOutput
	} else {
		y = p.output(idx)
	}
	p.lastValid = false

	t := int32(-1)
	if taken {
		t = 1
	}
	predTaken := y >= 0
	mag := y
	if mag < 0 {
		mag = -mag
	}
	if predTaken != taken || mag <= p.theta {
		w := p.row(idx)
		w[0] = clampWeight(int32(w[0]) + t)
		for i := 0; i < p.histLen; i++ {
			w[i+1] = clampWeight(int32(w[i+1]) + t*int32(p.history[i]))
		}
	}
	// Shift history: newest outcome at position 0.
	copy(p.history[1:], p.history[:p.histLen-1])
	if taken {
		p.history[0] = 1
	} else {
		p.history[0] = -1
	}
}

func clampWeight(v int32) int16 {
	if v > weightMax {
		return weightMax
	}
	if v < -weightMax-1 {
		return -weightMax - 1
	}
	return int16(v)
}

// Name returns "perceptron".
func (p *Perceptron) Name() string { return "perceptron" }

// Reset zeroes weights and sets the history to all not-taken.
func (p *Perceptron) Reset() {
	clear(p.weights)
	for i := range p.history {
		p.history[i] = -1
	}
	p.lastValid = false
}
