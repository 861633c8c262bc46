package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs,
// an order statistic of the sample and never an interpolated value; 0
// for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// bestQuartile is the quartile on a metric's good side over per-block
// values: the 75th percentile of rates, the 25th of times. Interference
// on a shared machine only ever slows a block and arrives in phases of
// seconds, so the good-side quartile of many short fixed-work blocks
// repeats where total/elapsed does not.
func bestQuartile(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return percentile(xs, 75)
	}
	return percentile(xs, 25)
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// exclusive method) so spreads computed here match the ones the driver
// computes over runs. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median, 0 when
// there are too few values or the median is 0.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// ratio is a/b, 0 when b is 0: a layer the workload bypasses reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
