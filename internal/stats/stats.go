// Package stats provides the small statistics toolkit the evaluation
// uses: exact counting histograms with quantiles (Counts) for the
// integer-valued data the simulator observes, a sample-retaining
// accumulator (Sample) for anything else, and normalization helpers for
// the paper-style tables.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations and answers moments and quantiles.
// The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.sum += x
}

// AddN records many observations.
func (s *Sample) AddN(xs ...float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// Merge appends other's observations to s in their insertion order, so
// that merging samples in a fixed order yields bit-identical moments
// (float summation order matters). A nil other is a no-op.
func (s *Sample) Merge(other *Sample) {
	if other == nil {
		return
	}
	for _, x := range other.xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Min and Max return the extremes (0 for an empty sample).
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Stddev returns the population standard deviation.
func (s *Sample) Stddev() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, x := range s.xs {
		d := x - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) with linear
// interpolation between order statistics.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if q <= 0 {
		s.ensureSorted()
		return s.xs[0]
	}
	if q >= 1 {
		s.ensureSorted()
		return s.xs[len(s.xs)-1]
	}
	s.ensureSorted()
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// P50, P90, P95, P99 are the usual latency quantiles.
func (s *Sample) P50() float64 { return s.Quantile(0.50) }

// P90 returns the 90th percentile.
func (s *Sample) P90() float64 { return s.Quantile(0.90) }

// P95 returns the 95th percentile.
func (s *Sample) P95() float64 { return s.Quantile(0.95) }

// P99 returns the 99th percentile.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Summary renders "n=… mean=… p50=… p95=… max=…".
func (s *Sample) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
		s.N(), s.Mean(), s.P50(), s.P95(), s.P99(), s.Max())
}

// Histogram renders a log2-bucketed ASCII histogram, useful for latency
// distributions in command output.
func (s *Sample) Histogram(width int) string {
	var c Counts
	for _, x := range s.xs {
		c.Add(x)
	}
	return c.Histogram(width)
}

// GeoMean returns the geometric mean, the evaluation's cross-workload
// aggregate (0 when any value is non-positive).
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var acc float64
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		acc += math.Log(v)
	}
	return math.Exp(acc / float64(len(vals)))
}
