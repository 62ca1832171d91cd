package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail read off fewer samples is one or two stragglers, not a tail.
const minBeyond = 10

// tailCandidates are the percentiles pickTail chooses among, highest first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90}

// pickTail returns the highest candidate percentile that still has at
// least minBeyond samples beyond it, or 0.5 when even p90 has not.
func pickTail(n int) float64 {
	for _, p := range tailCandidates {
		// Nearest rank: ceil(p·n) samples lie at or below the percentile.
		if n-int(math.Ceil(p*float64(n)-1e-9)) >= minBeyond {
			return p
		}
	}
	return 0.5
}

// percentile returns the nearest-rank p-quantile of sorted (ascending).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value of xs (mean of the middle two for even
// counts) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latencies is a sorted sample of operation latencies in milliseconds.
type latencies []float64

func sortedLatencies(ms []float64) latencies {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return s
}

func (l latencies) p(q float64) float64 { return percentile(l, q) }

// safeDiv returns a/b, or 0 when b is 0.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
