package main

import (
	"math"
	"sort"
)

// median returns the median of xs, NaN when xs is empty. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it may be reported: a tail percentile is reported only while
// at least minBeyond samples lie beyond its rank, so a p99 needs 1,000
// samples for ten beyond it.
func percentile(xs []float64, p float64, minBeyond int) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted(xs)[rank-1], n-rank >= minBeyond
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// values maps xs through f.
func values[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
