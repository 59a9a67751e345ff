package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder is the set of percentiles a report may quote; the
// highest one a sample supports is the one with at least minTail samples
// beyond it.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// minTail is how many samples must lie beyond a quoted percentile.
const minTail = 10

// rankOf returns the nearest-rank index (0-based) of percentile p in a
// sorted sample of n values.
func rankOf(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// tailBeyond returns how many of n samples lie strictly beyond the
// nearest-rank position of percentile p.
func tailBeyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankOf(p, n)
}

// topPercentile returns the highest ladder percentile with at least minTail
// samples beyond it, or 0 when even the median is unsupported.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range percentileLadder {
		if tailBeyond(p, n) >= minTail {
			top = p
		}
	}
	return top
}

// percentile returns the nearest-rank percentile p of xs, sorting xs in
// place. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankOf(p, len(xs))]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), sorting xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
