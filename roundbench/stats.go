package main

import (
	"math"
	"sort"
)

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the percentile round_tail_ms reports. It is fixed,
// so a change that makes rounds faster (and a run longer in rounds) is
// compared at the same point of the distribution. It sits below the
// rounds that bursts of other work on a shared host stretch: a round
// keeps both cores busy most of the time, so such a burst can double
// the rounds it overlaps, and how many of those fall into one run decides any
// percentile above them (README.md, Steadiness).
const tailPercentile = 80

// tail returns the tailPercentile-th percentile of xs by nearest rank:
// the smallest sample with at least tailPercentile% of xs at or below it.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (tailPercentile*len(s) + 99) / 100 // ⌈p·n/100⌉, exactly
	return s[rank-1]
}

func ms(ns float64) float64 { return ns / 1e6 }
