package main

import "sort"

// tailSamples is how many samples a reported percentile must leave beyond
// it: a tail figure resting on fewer is noise.
const tailSamples = 10

// percentile returns the nearest-rank pct-th percentile of xs: the
// smallest sample with at least pct% of the samples at or below it.
func percentile(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(pct, len(s)), 1)-1]
}

// rank is the 1-based nearest rank of the pct-th percentile of n samples,
// ⌈pct·n/100⌉, in integers so that 95% of 200 is exactly 190.
func rank(pct, n int) int { return (pct*n + 99) / 100 }

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPct applies the reporting rule for tail percentiles: the highest
// whole percentile up to want that still leaves tailSamples samples beyond
// it. With too few samples for even the median to qualify it returns 50,
// and the sample count printed beside the figure shows how thin it is.
func tailPct(n, want int) int {
	for p := want; p > 50; p-- {
		if n-rank(p, n) >= tailSamples {
			return p
		}
	}
	return 50
}
