package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// summary is everything a histogram snapshot reads, compared bit for bit.
type summary struct {
	n                                    int
	mean, p50, p90, p95, p99, minV, maxV uint64
}

type summarizer interface {
	N() int
	Mean() float64
	P50() float64
	P90() float64
	P95() float64
	P99() float64
	Min() float64
	Max() float64
}

func summarize(s summarizer) summary {
	b := math.Float64bits
	return summary{s.N(), b(s.Mean()), b(s.P50()), b(s.P90()), b(s.P95()), b(s.P99()), b(s.Min()), b(s.Max())}
}

// stream turns quick's raw values into an integer-valued observation
// stream that exercises both parts of a Counts: most values land in the
// dense array, every fourth is spread far past denseLimit.
func stream(raw []uint32) []float64 {
	xs := make([]float64, len(raw))
	for i, r := range raw {
		if r%4 == 0 {
			xs[i] = float64(r % 100_000)
		} else {
			xs[i] = float64(r % (2 * denseLimit))
		}
	}
	return xs
}

// Property: on integer streams Counts and Sample agree bit for bit on
// every number a snapshot exports, and on any other quantile.
func TestPropertyCountsMatchSample(t *testing.T) {
	f := func(raw []uint32, qf uint16) bool {
		var c Counts
		var s Sample
		for _, x := range stream(raw) {
			c.Add(x)
			s.Add(x)
		}
		q := float64(qf) / math.MaxUint16
		return summarize(&c) == summarize(&s) &&
			math.Float64bits(c.Quantile(q)) == math.Float64bits(s.Quantile(q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging shards adds counts, so any merge order gives the
// snapshot that shard order gives, which is the snapshot of a Sample fed
// the shards' observations back to back.
func TestPropertyCountsMergeOrder(t *testing.T) {
	f := func(raw [][]uint32, seed int64) bool {
		shards := make([]Counts, len(raw))
		var ref Sample
		for i, r := range raw {
			for _, x := range stream(r) {
				shards[i].Add(x)
				ref.Add(x)
			}
		}
		var inOrder, shuffled Counts
		for i := range shards {
			inOrder.Merge(&shards[i])
		}
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(shards)) {
			shuffled.Merge(&shards[i])
		}
		want := summarize(&ref)
		return summarize(&inOrder) == want && summarize(&shuffled) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountsEmptyAndNil(t *testing.T) {
	var c Counts
	if summarize(&c) != (summary{}) {
		t.Fatalf("empty Counts must answer zeros: %+v", summarize(&c))
	}
	if c.Histogram(10) != "(empty)" {
		t.Fatal("empty histogram")
	}
	c.Merge(nil)
	c.Merge(&Counts{})
	if c.N() != 0 || c.dense != nil || c.sparse != nil {
		t.Fatalf("merging nothing changed an empty Counts: %+v", c)
	}
}

// hostile are the observations a tick subtraction gone wrong, a forged
// message or a caller's bug can produce.
var hostile = []float64{
	float64(^uint64(0)), // now - mark after an underflow: ~1.8e19
	-1, -1e300, 0.5, denseLimit - 0.5, denseLimit, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1),
}

// Property: no observation, however large or malformed, panics, sizes the
// dense array, or loses count; without NaNs the order statistics still
// match Sample exactly (sums of such values are no longer exact, so the
// mean is compared only for being a number when every value is finite).
func TestPropertyCountsHostile(t *testing.T) {
	f := func(raw []uint32, picks []uint8, withNaN bool) bool {
		var c Counts
		var s Sample
		add := func(x float64) {
			if math.IsNaN(x) && !withNaN {
				return
			}
			c.Add(x)
			s.Add(x)
		}
		for i, x := range stream(raw) {
			add(x)
			if i < len(picks) {
				add(hostile[int(picks[i])%len(hostile)])
			}
		}
		for _, p := range picks {
			add(hostile[int(p)%len(hostile)])
		}
		if len(c.dense) > denseLimit || c.N() != s.N() {
			return false
		}
		_ = c.Summary()
		_ = c.Histogram(20)
		var m Counts
		m.Merge(&c)
		m.Merge(&c)
		if m.N() != 2*c.N() || len(m.dense) > denseLimit {
			return false
		}
		if withNaN {
			return true // Sample's own order is undefined once a NaN is in it
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			if math.Float64bits(c.Quantile(q)) != math.Float64bits(s.Quantile(q)) &&
				!(c.Quantile(q) == 0 && s.Quantile(q) == 0) { // -0 is counted as 0
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// A hostile value must cost one overflow entry, not an array its size.
func TestCountsHugeValueStaysSparse(t *testing.T) {
	var c Counts
	c.Add(3)
	c.Add(float64(^uint64(0)))
	c.Add(-7)
	if len(c.dense) > denseLimit || len(c.sparse) != 2 {
		t.Fatalf("dense %d entries, sparse %d: want <= %d and 2", len(c.dense), len(c.sparse), denseLimit)
	}
	if c.Min() != -7 || c.Max() != float64(^uint64(0)) || c.P50() != 3 {
		t.Fatalf("min/p50/max = %v/%v/%v", c.Min(), c.P50(), c.Max())
	}
}
