package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile for
// the sample to support it.
const minTail = 10

// minSamplesFor is the smallest sample that supports percentile p: one
// with at least minTail values beyond it.
func minSamplesFor(p float64) int {
	return int(math.Ceil(minTail*100/(100-p) - 1e-6))
}

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place). It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the 50th percentile of xs (sorted in place).
func median(xs []float64) float64 { return percentile(xs, 50) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// medianMS is the median of ds in milliseconds.
func medianMS(ds []time.Duration) float64 { return median(durationsMS(ds)) }
