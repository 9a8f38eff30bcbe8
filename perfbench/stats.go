package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, so it never rests on the
// three slowest requests of a short run.
const minTail = 10

// summary describes one set of latency samples.
type summary struct {
	N   int
	P50 float64
	P99 float64
	// HasP99 is false when fewer than tail samples lie beyond the p99.
	HasP99 bool
}

// percentile returns the nearest-rank p-quantile of sorted and whether at
// least tail samples lie beyond it.
func percentile(sorted []float64, p float64, tail int) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= tail
}

// summarize computes the median and p99 of vals (any order; vals is not
// modified).
func summarize(vals []float64, tail int) summary {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	s := summary{N: len(sorted)}
	s.P50, _ = percentile(sorted, 0.50, tail)
	s.P99, s.HasP99 = percentile(sorted, 0.99, tail)
	return s
}

// windowed splits vals, in arrival order, into as many equal consecutive
// windows as still support a p99 each, summarizes every window, and
// returns the median of the window medians and of the window p99s. One
// window hit by a collector pause or a noisy neighbour then moves the
// result by at most one rank instead of setting the p99 outright. With
// too few samples for even one supported window it summarizes vals
// whole, and HasP99 reports the shortfall.
func windowed(vals []float64, tail int) summary {
	per := int(math.Ceil(float64(tail) / 0.01))
	k := len(vals) / per
	if k < 2 {
		return summarize(vals, tail)
	}
	p50s := make([]float64, k)
	p99s := make([]float64, k)
	size := len(vals) / k
	for w := 0; w < k; w++ {
		end := (w + 1) * size
		if w == k-1 {
			end = len(vals)
		}
		s := summarize(vals[w*size:end], tail)
		p50s[w], p99s[w] = s.P50, s.P99
	}
	return summary{N: len(vals), P50: median(p50s), P99: median(p99s), HasP99: true}
}

// median returns the median of vals (mean of the middle two for an even
// count); vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns Q1, median and Q3 of vals exactly as Python's
// statistics.quantiles(vals, n=4) (the default "exclusive" method) and
// statistics.median compute them, so the spreads printed here are the
// ones an independent checker computes from the same runs. It needs at
// least two values; with one, all three are that value.
func quartiles(vals []float64) (q1, med, q3 float64) {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), median(sorted), q(3)
}
