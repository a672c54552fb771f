package main

import (
	"math"
	"runtime/metrics"
	"sort"
)

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p int) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile picks the highest percentile, up to the p95 the metric is
// named for, that has at least ten samples beyond it; below 20 samples
// none has, and it falls back to the median.
func tailPercentile(n int) int {
	for _, p := range []int{95, 90, 75} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which the driver uses for its spread check. It needs
// at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return math.Abs((q3 - q1) / m)
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapCount is cumulative heap allocation (objects and bytes).
type heapCount struct{ Objects, Bytes uint64 }

func (a heapCount) sub(b heapCount) heapCount {
	return heapCount{a.Objects - b.Objects, a.Bytes - b.Bytes}
}

func (a heapCount) add(b heapCount) heapCount {
	return heapCount{a.Objects + b.Objects, a.Bytes + b.Bytes}
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readHeap reads the process-wide allocation totals (the numbers behind
// MemStats.Mallocs/TotalAlloc) without ReadMemStats' stop-the-world, so it
// is cheap enough to bracket every shard.
func readHeap() heapCount {
	metrics.Read(heapSamples)
	return heapCount{heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64()}
}

// gcCount is cumulative collector work.
type gcCount struct {
	cycles     uint64
	gcCPU, cpu float64 // seconds
}

func (a gcCount) sub(b gcCount) gcCount {
	return gcCount{a.cycles - b.cycles, a.gcCPU - b.gcCPU, a.cpu - b.cpu}
}

func (a gcCount) add(b gcCount) gcCount {
	return gcCount{a.cycles + b.cycles, a.gcCPU + b.gcCPU, a.cpu + b.cpu}
}

func readGC() gcCount {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCount{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()}
}
