package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is a handful of outliers, not a quantile.
const minBeyond = 10

// rank returns the 0-based nearest-rank index of the p-quantile among n
// sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-quantile of sorted; NaN when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)]
}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least minBeyond of n samples beyond it, or 0 when even the median
// has not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-1-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the exclusive method
// of Python's statistics.quantiles(xs, n=4), which is what the acceptance
// driver uses; it needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - 4*float64(j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
