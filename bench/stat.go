package main

import (
	"math"
	"sort"

	"vitis/internal/stats"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of samples by linear
// interpolation between closest ranks; an empty sample yields 0 (a NaN could
// not be printed as a metric).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return stats.Percentile(samples, 100*p)
}

// tickPercentile is percentile for samples quantised to multiples of
// width (the simulator's 1 ms clock): a sample v stands for a value spread
// evenly over [v, v+width), so the quantile is interpolated inside the tied
// bin instead of snapping to the tick. It keeps all the digits of a median
// over hundreds of thousands of integer samples.
func tickPercentile(samples []float64, p, width float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := p * float64(len(s))
	i := int(rank)
	if i >= len(s) {
		i = len(s) - 1
	}
	v := s[i]
	below := sort.SearchFloat64s(s, v)
	equal := sort.SearchFloat64s(s, math.Nextafter(v, math.Inf(1))) - below
	return v + width*(rank-float64(below))/float64(equal)
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// what the driver computes spreads from. Fewer than two values repeat the
// single value.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0, 0, 0
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}
