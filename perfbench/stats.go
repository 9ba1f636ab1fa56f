package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), 0 for no values.
func median(xs []float64) float64 {
	d := sortedCopy(xs)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// quartiles returns the first, second and third quartiles of xs by the
// rule Python's statistics.quantiles(xs, n=4) uses (the default
// "exclusive" method), so the spread this benchmark reports is the one
// a reader recomputes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail figure resting on fewer is a single outlier.
const minBeyond = 10

// tailLevels are the percentiles tail considers, highest first.
var tailLevels = []float64{99, 95, 90, 75, 50}

// tail returns the highest percentile of xs (among tailLevels) with at
// least minBeyond samples above its nearest rank, and that level. With
// too few samples for any of them it returns the median (level 50).
func tail(xs []float64) (value, level float64) {
	d := sortedCopy(xs)
	n := len(d)
	if n == 0 {
		return 0, 50
	}
	for _, p := range tailLevels {
		if v, ok := percentile(d, p); ok {
			return v, p
		}
	}
	return median(d), 50
}

// percentile returns the nearest-rank p-th percentile of the sorted
// values d, and whether at least minBeyond samples lie above it.
func percentile(d []float64, p float64) (float64, bool) {
	n := len(d)
	if n == 0 {
		return 0, false
	}
	r := int(math.Ceil(p / 100 * float64(n)))
	r = max(1, min(r, n))
	return d[r-1], n-r >= minBeyond
}
