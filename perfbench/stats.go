package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first. p99 is the ceiling: above it a pass of a few thousand
// requests leaves too few samples for the figure to repeat.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile returns the highest ladder percentile that leaves at least
// ten of n samples beyond it, or 0 when even the median does not.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile of sorted by the nearest-rank
// method: the smallest sample with at least p% of samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of xs (the mean of the middle pair for an even
// count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
