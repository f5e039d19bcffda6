package main

import (
	"math"
	"slices"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// minWindow is the fewest campaigns an untraced window runs: with 100
// samples, minTail of them lie beyond the p90.
const minWindow = 100

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs: the
// smallest sample with at least a share q of the samples at or below it.
// A failed campaign enters as +Inf, so it counts as missing any latency
// limit. ok is false when fewer than minTail samples lie beyond the rank
// (for p90 that means n < 100) — the value is then reported with a
// warning, not trusted as a tail.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s)-1-rank >= minTail
}

// median is the midpoint median (mean of the two middle samples for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
