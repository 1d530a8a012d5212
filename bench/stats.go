package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark trusts it: a p95 read off fewer than ten tail samples moves
// with every outlier.
const minBeyond = 10

// dist summarizes one latency sample: its median, its 95th percentile
// and the sample count. P95Supported is false when fewer than minBeyond
// samples lie beyond the p95 rank; the value is still reported, but it
// is a statement about a handful of samples.
type dist struct {
	N            int
	P50, P95     float64
	P95Supported bool
}

// summarize computes p50 and p95 by linear interpolation between the
// closest ranks, so neither percentile is biased toward the lower sample
// the way truncating p*(n-1) is.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: percentile(s, 0.50), P95: percentile(s, 0.95)}
	d.P95Supported = beyond(len(s), 0.95) >= minBeyond
	return d
}

// percentile interpolates the p-quantile of the sorted sample s.
func percentile(s []float64, p float64) float64 {
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// beyond counts the samples of an n-sample set ranked strictly above the
// p-quantile's interpolation point.
func beyond(n int, p float64) int {
	return n - 1 - int(math.Floor(p*float64(n-1)))
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones computed
// by any Python tooling over the same result files.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// median returns the middle of xs (0 for an empty sample).
func median(xs []float64) float64 { return summarize(xs).P50 }
