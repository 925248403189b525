package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// Quantiles is the exact latency readout of a sample set: the median and
// the highest percentile that still has at least minTail samples beyond it,
// both taken from the raw sorted samples (never from histogram buckets).
type Quantiles struct {
	N      int
	P50    float64
	Tail   float64 // value at the tail percentile
	TailPc float64 // the tail percentile itself, in [0, 100]; 0 when N <= minTail
}

// exactQuantiles sorts a copy of xs and reads the median and the tail.
//
// Rank rule: with n samples sorted ascending, the tail is the sample at
// 1-based rank n-minTail, the highest rank that leaves minTail samples
// strictly above it; its percentile is 100·rank/n. With n <= minTail no
// such rank exists and the tail falls back to the median (TailPc 0). The
// median is the lower middle sample (rank ⌈n/2⌉), so every reported value
// is a measured sample.
func exactQuantiles(xs []float64) Quantiles {
	q := Quantiles{N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q.P50 = s[(len(s)+1)/2-1]
	q.Tail = q.P50
	if rank := len(s) - minTail; rank >= 1 && len(s) > minTail {
		q.Tail = s[rank-1]
		q.TailPc = 100 * float64(rank) / float64(len(s))
	}
	return q
}

// median returns the middle value of xs (mean of the two middle values for
// even counts), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
