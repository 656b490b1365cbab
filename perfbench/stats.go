package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// median returns the median of xs (the mean of the middle two for an
// even count) and false for an empty sample.
func median(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// med is the median of xs, 0 for an empty sample.
func med(xs []float64) float64 {
	m, _ := median(xs)
	return m
}

// classMedian is the mean, over classes, of each class's median, and
// the number of samples behind it. Requests of different classes
// (kernels, engines) have latencies in separate modes; the median of
// the pooled mixture falls in the sparse gap between those modes and
// jumps from run to run, while each class's median does not.
func classMedian(classes map[int][]float64) (float64, int) {
	var total float64
	k, n := 0, 0
	for _, xs := range classes {
		if m, ok := median(xs); ok {
			total += m
			k++
			n += len(xs)
		}
	}
	return ratio(total, float64(k)), n
}

// tail returns the nearest-rank p-th percentile (50 < p < 100) of xs,
// and whether the percentile rule allows reporting it: at least
// minBeyond samples must rank strictly above it.
func tail(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	rank = max(1, min(rank, n))
	s := sorted(xs)
	return s[rank-1], n-rank >= minBeyond
}

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method — the default of Python's
// statistics.quantiles(xs, n=4), which is how run-to-run spread is
// judged. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	at := func(j int) float64 {
		m := n + 1
		idx := j * m / 4
		idx = max(1, min(idx, n-1))
		delta := float64(j*m-4*idx) / 4
		return s[idx-1] + (s[idx]-s[idx-1])*delta
	}
	return at(1), at(2), at(3), true
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(q2), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
