package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles the tail metric may report, highest
// first. A run reports the highest one that leaves at least minBeyond samples
// strictly above it, capped at the workload's recorded percentile.
var tailLadder = []float64{99.9, 99.5, 99, 98, 97.5, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p among n sorted
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest ladder percentile not above cap that
// keeps at least minBeyond of n samples beyond it. ok is false when even the
// median leaves fewer than minBeyond beyond; the median is returned then.
func tailPercentile(n int, cap float64) (p float64, ok bool) {
	for _, q := range tailLadder {
		if q > cap {
			continue
		}
		if n-rank(n, q) >= minBeyond {
			return q, true
		}
	}
	return 50, false
}

// percentile returns the nearest-rank percentile p of xs, leaving xs
// untouched. Empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// frac is a/b, 0 when b is 0.
func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
