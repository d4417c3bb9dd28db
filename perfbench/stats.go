package main

import (
	"fmt"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p90 needs at least 100 samples, a p50 at least 20.
const minTail = 10

// percentile returns the pct-th percentile (0 < pct < 100) of xs by the
// nearest-rank method: the smallest sample with at least pct percent of
// the samples at or below it. It refuses to report a percentile that
// fewer than minTail samples lie beyond.
func percentile(xs []float64, pct int) (float64, error) {
	if pct <= 0 || pct >= 100 {
		return 0, fmt.Errorf("percentile %d out of range (0, 100)", pct)
	}
	n := len(xs)
	rank := (n*pct + 99) / 100 // ceil(n*pct/100), 1-based
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("p%d needs %d samples beyond it, have %d samples", pct, minTail, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// quartiles returns the first quartile, the median and the third
// quartile of xs, computed like Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method) and statistics.median, so the spreads this
// package reports match the ones computed from its result files.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

// median is the middle of xs (the mean of the two middle samples for an
// even count).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
