package main

import (
	"math"
	"regexp"
	"sort"
)

// percentile is the nearest-rank percentile of xs (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it. It
// returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
// The small slack keeps a product like 99.9% of 10000, which floating
// point puts a hair above 9990, at rank 9990.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the percentiles a latency can be reported at, in
// increasing order.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// tailPercentile returns the highest of tailPercentiles that still has at
// least minBeyond of n samples strictly above its rank, so the tail figure
// rests on enough observations. ok is false when even the median does not.
func tailPercentile(n, minBeyond int) (p float64, ok bool) {
	for _, q := range tailPercentiles {
		if n-nearestRank(n, q) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// median is the middle of xs, the mean of the two middles for an even
// count; NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is usable as a metric name: it
// starts with a letter or digit and has at most 64 letters, digits, '_',
// '.' and '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }
