package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest percentile of the ladder, at most
// maxPct, that leaves at least ten samples beyond it in n samples. When no
// percentile qualifies it returns 50: the tail is then the median.
func tailPercentile(n int, maxPct float64) float64 {
	for _, p := range tailLadder {
		if p > maxPct {
			continue
		}
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// quantile reads the p-th percentile (0..100) of samples by linear
// interpolation between closest ranks. samples need not be sorted; it is
// not modified.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return quantile(samples, 50) }
