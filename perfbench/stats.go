package main

import (
	"math"
	"sort"
)

// tailLadder is the percentile ladder the tail rule climbs.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile applies the percentile rule: the highest percentile on
// the ladder that has at least ten of n samples beyond it, so p90 needs
// n >= 100 and p99 needs n >= 1000. It returns 0 when n < 20, where
// not even the median has ten samples above it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank method; NaN when sorted is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencySummary is a latency series reported by the percentile rule:
// the median, the highest percentile the sample count supports, and
// that count.
type latencySummary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

func summarize(samples []float64) latencySummary {
	s := sortedCopy(samples)
	out := latencySummary{N: len(s), P50: percentile(s, 50), TailPct: tailPercentile(len(s))}
	if out.TailPct > 0 {
		out.Tail = percentile(s, out.TailPct)
	}
	return out
}

// percentileIfSupported returns the p-th percentile of samples, or 0
// when the percentile rule does not support p at this sample count.
func percentileIfSupported(samples []float64, p float64) float64 {
	if tailPercentile(len(samples)) < p {
		return 0
	}
	return percentile(sortedCopy(samples), p)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (the mean of the middle pair for even lengths); NaN when
// v is empty.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
