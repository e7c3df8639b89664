package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// It never interpolates, so every reported value is one that was measured.
// An empty sample gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile (the lower middle of an even
// sample).
func median(xs []float64) float64 { return percentile(xs, 50) }

// p99Block is the number of consecutive requests one p99 estimate rests
// on: with 1000 samples, ten lie beyond the nearest-rank p99.
const p99Block = 1000

// blockP99 estimates the p99 of a latency series (in request order) as the
// median over consecutive blocks of about p99Block requests of each
// block's nearest-rank p99, so that a host hiccup lasting a fraction of
// the run moves one block, not the estimate. A series shorter than two
// blocks is one block.
func blockP99(xs []float64) float64 {
	n := len(xs) / p99Block
	if n < 2 {
		return percentile(xs, 99)
	}
	var ps []float64
	for b := 0; b < n; b++ {
		ps = append(ps, percentile(xs[b*len(xs)/n:(b+1)*len(xs)/n], 99))
	}
	return median(ps)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// failFrac is failed/attempted, the share of operations that failed; 0 when
// nothing was attempted.
func failFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// pairMedians returns, in pair order, for each of n pairs that has
// requests, the median of the latencies lat[i] of the requests i with
// pairOf[i] equal to it. Only a very short run leaves a pair out.
func pairMedians(lat []float64, pairOf []int, n int) []float64 {
	by := make([][]float64, n)
	for i, x := range lat {
		by[pairOf[i]] = append(by[pairOf[i]], x)
	}
	var out []float64
	for _, xs := range by {
		if len(xs) > 0 {
			out = append(out, median(xs))
		}
	}
	return out
}

// geomean is the geometric mean of xs, which must be positive.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
