package main

import (
	"cmp"
	"math"
	"slices"
)

// sortedKeys returns a map's keys in order, for deterministic folding.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tailFor returns the highest candidate percentile with at least ten of
// n samples beyond it (50 when n is too small for any).
func tailFor(n int) float64 {
	for _, p := range tailPercentiles {
		if math.Floor(float64(n)*(100-p)/100+1e-9) >= 10 {
			return p
		}
	}
	return 50
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
