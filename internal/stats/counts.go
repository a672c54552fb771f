package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// denseLimit bounds the dense part of a Counts: integer observations in
// [0, denseLimit) are counted in a flat array indexed by value, everything
// else in the sorted overflow. Every net.channel.depth observation (one per
// send) and every cache-hit latency is far below it, so the observations
// made millions of times cost one index each; the array grows only to the
// largest such value seen, at most 2 KiB per histogram, and never to the
// size of an observed value, so a hostile observation costs one overflow
// entry. ARCHITECTURE.md "Histograms" has the measured value ranges.
const denseLimit = 256

// Counts is an exact histogram: it keeps how many times each distinct
// value was observed, not the observations themselves, so memory is
// O(distinct values) however long the run, and merging adds counts. It
// answers the same moments and quantiles as Sample, with the same
// order-statistic interpolation, and bit-identically so for integer-valued
// data (ticks, queue depths — everything the simulator observes): sums of
// integer-valued float64s below 2^53 are exact in any order. The zero
// value is ready to use.
type Counts struct {
	n      uint64
	sum    float64
	dense  []uint64 // dense[v] = observations of integer v; len <= denseLimit
	sparse []bucket // every other value, in sort.Float64s order (NaNs first)
}

type bucket struct {
	v float64
	n uint64
}

// Add records one observation. Any float64 is accepted: negatives, NaNs,
// non-integers and values of any magnitude take the overflow path.
func (c *Counts) Add(x float64) {
	c.n++
	c.sum += x
	c.bump(x, 1)
}

// Reset forgets every observation, keeping the storage.
func (c *Counts) Reset() {
	clear(c.dense)
	*c = Counts{dense: c.dense, sparse: c.sparse[:0]}
}

// Slab is storage for copies of several Counts, so that copying them
// allocates two arrays in all: Fit each original first, then Clone each.
type Slab struct {
	nd, ns int // the room Fit asked for
	dense  []uint64
	sparse []bucket
}

// Fit makes room in s for a copy of c.
func (s *Slab) Fit(c *Counts) {
	s.nd += len(c.dense)
	s.ns += len(c.sparse)
}

// Clone returns a copy of c cut from the front of the room Fit made. The
// copy's arrays are capped at their length, so a later Add or Merge that
// grows one copies it out and never writes into the rest of the slab.
func (s *Slab) Clone(c *Counts) Counts {
	if s.dense == nil && s.sparse == nil {
		s.dense, s.sparse = make([]uint64, s.nd), make([]bucket, s.ns)
	}
	nd, ns := len(c.dense), len(c.sparse)
	out := Counts{n: c.n, sum: c.sum}
	if nd > 0 {
		out.dense = s.dense[:nd:nd]
		s.dense = s.dense[nd:]
		copy(out.dense, c.dense)
	}
	if ns > 0 {
		out.sparse = s.sparse[:ns:ns]
		s.sparse = s.sparse[ns:]
		copy(out.sparse, c.sparse)
	}
	return out
}

// Merge adds other's counts to c. Merging is commutative and associative
// for integer-valued data (see the type comment). A nil other is a no-op.
func (c *Counts) Merge(other *Counts) {
	if other == nil {
		return
	}
	c.n += other.n
	c.sum += other.sum
	if len(other.dense) > len(c.dense) {
		c.growDense(len(other.dense) - 1)
	}
	for v, k := range other.dense {
		c.dense[v] += k
	}
	for _, b := range other.sparse {
		c.bump(b.v, b.n)
	}
}

func (c *Counts) bump(x float64, k uint64) {
	if x >= 0 && x < denseLimit {
		if i := int(x); float64(i) == x {
			if i >= len(c.dense) {
				c.growDense(i)
			}
			c.dense[i] += k
			return
		}
	}
	i := sort.Search(len(c.sparse), func(i int) bool { return !floatLess(c.sparse[i].v, x) })
	if i < len(c.sparse) && !floatLess(x, c.sparse[i].v) {
		c.sparse[i].n += k
		return
	}
	c.sparse = append(c.sparse, bucket{})
	copy(c.sparse[i+1:], c.sparse[i:])
	c.sparse[i] = bucket{x, k}
}

// growDense extends the dense array to cover index i < denseLimit,
// doubling so a slowly rising maximum reallocates O(log) times.
func (c *Counts) growDense(i int) {
	n := max(2*len(c.dense), i+1, 16)
	grown := make([]uint64, min(n, denseLimit))
	copy(grown, c.dense)
	c.dense = grown
}

// floatLess is sort.Float64s' order: NaNs before every number.
func floatLess(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// walk visits every distinct value with its count in ascending order (the
// order a sorted Sample holds them in) until fn returns false.
func (c *Counts) walk(fn func(v float64, n uint64) bool) {
	d := 0
	denseBelow := func(limit float64) bool {
		for ; d < len(c.dense) && float64(d) < limit; d++ {
			if c.dense[d] != 0 && !fn(float64(d), c.dense[d]) {
				return false
			}
		}
		return true
	}
	for _, b := range c.sparse {
		if !denseBelow(b.v) || !fn(b.v, b.n) {
			return
		}
	}
	denseBelow(math.Inf(1))
}

// at returns the rank-th smallest observation, 0 <= rank < n.
func (c *Counts) at(rank uint64) float64 {
	var out float64
	c.walk(func(v float64, n uint64) bool {
		if rank < n {
			out = v
			return false
		}
		rank -= n
		return true
	})
	return out
}

// N returns the number of observations.
func (c *Counts) N() int { return int(c.n) }

// Mean returns the arithmetic mean (0 when empty).
func (c *Counts) Mean() float64 {
	if c.n == 0 {
		return 0
	}
	return c.sum / float64(c.n)
}

// Min returns the smallest observation (0 when empty).
func (c *Counts) Min() float64 { return c.Quantile(0) }

// Max returns the largest observation (0 when empty).
func (c *Counts) Max() float64 { return c.Quantile(1) }

// Quantile returns the q-th quantile (0 <= q <= 1) with linear
// interpolation between order statistics, exactly as Sample.Quantile.
func (c *Counts) Quantile(q float64) float64 {
	if c.n == 0 {
		return 0
	}
	if q <= 0 {
		return c.at(0)
	}
	if q >= 1 {
		return c.at(c.n - 1)
	}
	pos := q * float64(c.n-1)
	lo := math.Floor(pos)
	hi := math.Ceil(pos)
	if lo == hi {
		return c.at(uint64(lo))
	}
	frac := pos - lo
	return c.at(uint64(lo))*(1-frac) + c.at(uint64(hi))*frac
}

// P50 returns the median.
func (c *Counts) P50() float64 { return c.Quantile(0.50) }

// P90 returns the 90th percentile.
func (c *Counts) P90() float64 { return c.Quantile(0.90) }

// P95 returns the 95th percentile.
func (c *Counts) P95() float64 { return c.Quantile(0.95) }

// P99 returns the 99th percentile.
func (c *Counts) P99() float64 { return c.Quantile(0.99) }

// Summary renders "n=… mean=… p50=… p95=… p99=… max=…".
func (c *Counts) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
		c.N(), c.Mean(), c.P50(), c.P95(), c.P99(), c.Max())
}

// Histogram renders a log2-bucketed ASCII histogram, useful for latency
// distributions in command output.
func (c *Counts) Histogram(width int) string {
	if c.n == 0 {
		return "(empty)"
	}
	if width <= 0 {
		width = 40
	}
	buckets := map[int]uint64{}
	maxB := 0
	var maxN uint64
	c.walk(func(x float64, n uint64) bool {
		b := 0
		for v := x; v >= 2 && b < 63; v /= 2 { // the cap ends the loop on +Inf
			b++
		}
		buckets[b] += n
		maxB = max(maxB, b)
		maxN = max(maxN, buckets[b])
		return true
	})
	var sb strings.Builder
	for b := 0; b <= maxB; b++ {
		n := buckets[b]
		bar := strings.Repeat("#", int(n*uint64(width)/maxN))
		fmt.Fprintf(&sb, "%8d-%-8d %6d %s\n", 1<<b, 1<<(b+1)-1, n, bar)
	}
	return sb.String()
}
