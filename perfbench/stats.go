package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a percentile
// before the benchmark reports it: a p99 read off 200 samples is two
// points, not a tail.
const minBeyond = 10

// samples is a set of raw durations. Every reported timing is an exact
// order statistic of these values — no histogram buckets — so a 5% move
// shows as a 5% move.
type samples struct {
	d      []time.Duration
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.d = append(s.d, d)
	s.sorted = false
}

func (s *samples) n() int { return len(s.d) }

// quantile returns the nearest-rank q-quantile: the smallest sample x
// such that at least q·n samples are <= x. It returns 0 on no samples.
func (s *samples) quantile(q float64) time.Duration {
	if len(s.d) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.d, func(i, j int) bool { return s.d[i] < s.d[j] })
		s.sorted = true
	}
	return s.d[rankIndex(len(s.d), q)]
}

// sum returns the total of all samples.
func (s *samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s.d {
		t += d
	}
	return t
}

// mean returns the arithmetic mean, 0 on no samples.
func (s *samples) mean() time.Duration {
	if len(s.d) == 0 {
		return 0
	}
	return s.sum() / time.Duration(len(s.d))
}

// rankIndex is the 0-based index of the nearest-rank q-quantile among n
// sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile's position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// reportable applies the benchmark's percentile rule: q may be reported
// from n samples only when at least minBeyond samples lie beyond it.
func reportable(n int, q float64) bool { return beyond(n, q) >= minBeyond }

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// quantileFloat returns the nearest-rank q-quantile of xs, 0 on none.
func quantileFloat(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[rankIndex(len(c), q)]
}

// meanFloat returns the arithmetic mean of xs, 0 on none.
func meanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// medianFloat returns the median of xs (the mean of the middle pair
// for an even count), 0 on none. It is for small repeated measurements
// such as set-up times, not latency samples.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}
