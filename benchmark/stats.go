package main

import (
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of v by the
// nearest-rank rule: the smallest sample with at least p % of the
// samples at or below it. Nearest rank always reports a value that was
// measured, so the count of samples beyond it is exact — which is what
// the "at least ten samples beyond the reported percentile" rule needs.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile with the even-length midpoint rule
// (the mean of the two middle samples), as Python's statistics.median.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v exactly as
// Python's statistics.quantiles(v, n=4) does (the default "exclusive"
// method) — the rule the acceptance spread is defined with. It needs at
// least two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// nsToMs converts a slice of nanosecond readings to milliseconds.
func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, x := range ns {
		out[i] = float64(x) / 1e6
	}
	return out
}
