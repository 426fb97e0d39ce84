package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p99 over 200 samples would be decided by its two largest values.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100):
// the smallest sample with at least p% of the samples at or below it. It
// refuses a percentile with fewer than minBeyond samples above it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples: out of range", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d beyond it, want >= %d", p, n, beyond, minBeyond)
	}
	s := sorted(xs)
	return s[rank-1], nil
}

// median is the middle sample (the mean of the two middle samples for an
// even count); unlike percentile it accepts any non-empty sample.
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

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method, including
// its extrapolation on tiny samples), the rule the benchmark's spread is
// judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
