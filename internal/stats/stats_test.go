package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.P95() != 0 || s.Max() != 0 || s.Stddev() != 0 {
		t.Fatal("empty sample must answer zeros")
	}
	if s.Histogram(10) != "(empty)" {
		t.Fatal("empty histogram")
	}
}

func TestMoments(t *testing.T) {
	var s Sample
	s.AddN(2, 4, 4, 4, 5, 5, 7, 9)
	if !almost(s.Mean(), 5) {
		t.Fatalf("mean = %v", s.Mean())
	}
	if !almost(s.Stddev(), 2) {
		t.Fatalf("stddev = %v", s.Stddev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if !almost(s.P50(), 50.5) {
		t.Fatalf("p50 = %v", s.P50())
	}
	if got := s.Quantile(0.95); got < 95 || got > 96 {
		t.Fatalf("p95 = %v", got)
	}
	if s.Quantile(-1) != 1 || s.Quantile(2) != 100 {
		t.Fatal("clamped quantiles wrong")
	}
}

func TestQuantileInterleavedWithAdd(t *testing.T) {
	var s Sample
	s.Add(10)
	if s.P50() != 10 {
		t.Fatal("single-element quantile")
	}
	s.Add(2) // must re-sort after adding
	if s.Min() != 2 {
		t.Fatalf("min after second add = %v", s.Min())
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []uint16, q1f, q2f uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, r := range raw {
			s.Add(float64(r))
		}
		q1 := float64(q1f) / 255
		q2 := float64(q2f) / 255
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := s.Quantile(q1), s.Quantile(q2)
		return a <= b && a >= s.Min() && b <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the p-quantile has at least p fraction of values <= it.
func TestPropertyQuantileCoverage(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		var s Sample
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
			s.Add(float64(r))
		}
		sort.Float64s(vals)
		q := s.Quantile(0.9)
		below := 0
		for _, v := range vals {
			if v <= q {
				below++
			}
		}
		// With linear interpolation the q-quantile sits at order
		// statistic floor(q*(n-1)) or above, so at least that many +1
		// values are <= it.
		return below >= int(0.9*float64(len(vals)-1))+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramShape(t *testing.T) {
	var s Sample
	s.AddN(1, 2, 3, 4, 8, 16, 16, 17)
	h := s.Histogram(20)
	if !strings.Contains(h, "#") {
		t.Fatalf("histogram has no bars:\n%s", h)
	}
	if len(strings.Split(strings.TrimSpace(h), "\n")) < 4 {
		t.Fatalf("histogram too few buckets:\n%s", h)
	}
}

func TestSummary(t *testing.T) {
	var s Sample
	s.AddN(1, 2, 3)
	sum := s.Summary()
	for _, frag := range []string{"n=3", "mean=2.0", "max=3.0"} {
		if !strings.Contains(sum, frag) {
			t.Fatalf("summary %q missing %q", sum, frag)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{1, 4}), 2) {
		t.Fatalf("geomean = %v", GeoMean([]float64{1, 4}))
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{1, 0}) != 0 {
		t.Fatal("degenerate geomeans")
	}
}

// Property: geomean lies between min and max for positive inputs.
func TestPropertyGeoMeanBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		var vals []float64
		for _, r := range raw {
			vals = append(vals, float64(r)+1)
		}
		if len(vals) == 0 {
			return true
		}
		g := GeoMean(vals)
		mn, mx := vals[0], vals[0]
		for _, v := range vals {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return g >= mn-1e-9 && g <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
