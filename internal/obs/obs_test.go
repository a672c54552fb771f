package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(5)
	g.Add(-2)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Counts() != nil {
		t.Fatalf("nil instruments must be inert")
	}
	r.Merge(NewRegistry())
	var b *Bus
	b.Emit(Event{})
	if b.Err() != nil {
		t.Fatalf("nil bus must be inert")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty")
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatalf("same name must yield the same counter")
	}
	r.Counter("a").Add(2)
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	g := r.Gauge("q")
	g.Add(7)
	g.Add(-3)
	if g.Value() != 4 || g.Max() != 7 {
		t.Fatalf("gauge value=%d max=%d, want 4/7", g.Value(), g.Max())
	}
	h := r.Histogram("lat")
	h.Observe(10)
	h.Observe(30)
	if h.Counts().N() != 2 || h.Counts().Mean() != 20 {
		t.Fatalf("histogram n=%d mean=%f", h.Counts().N(), h.Counts().Mean())
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(1)
	b.Counter("c").Add(2)
	b.Counter("only-b").Add(5)
	a.Gauge("g").Set(3)
	b.Gauge("g").Set(9)
	b.Gauge("g").Set(1)
	a.Histogram("h").Observe(4)
	b.Histogram("h").Observe(8)
	a.Merge(b)
	if got := a.Counter("c").Value(); got != 3 {
		t.Fatalf("merged counter = %d, want 3", got)
	}
	if got := a.Counter("only-b").Value(); got != 5 {
		t.Fatalf("merged new counter = %d, want 5", got)
	}
	if g := a.Gauge("g"); g.Value() != 4 || g.Max() != 9 {
		t.Fatalf("merged gauge value=%d max=%d, want 4/9", g.Value(), g.Max())
	}
	if s := a.Histogram("h").Counts(); s.N() != 2 || s.Max() != 8 {
		t.Fatalf("merged hist n=%d max=%f", s.N(), s.Max())
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z.last").Add(1)
		r.Counter("a.first").Add(2)
		r.Gauge("net.inflight").Set(7)
		r.Histogram("xg.crossing.ticks").Observe(100)
		r.Histogram("xg.crossing.ticks").Observe(300)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("metrics JSON not deterministic:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	s, err := ReadSnapshot(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters["a.first"] != 2 || s.Counters["z.last"] != 1 {
		t.Fatalf("round-trip counters: %v", s.Counters)
	}
	if h := s.Histograms["xg.crossing.ticks"]; h.N != 2 || h.Mean != 200 || h.Max != 300 {
		t.Fatalf("round-trip histogram: %+v", h)
	}
}

func TestStateRecorder(t *testing.T) {
	r := NewRegistry()
	rec := StateRecorder(r, "hammer.cache", []string{"I", "S", "M"})
	rec(2, 4)
	rec(2, 5)
	rec(0, 0)
	if got := r.Counter("hammer.cache.state.M").Value(); got != 2 {
		t.Fatalf("state.M = %d, want 2", got)
	}
	if got := r.Counter("hammer.cache.state.I").Value(); got != 1 {
		t.Fatalf("state.I = %d, want 1", got)
	}
	// The registry snapshot is part of reports and of the benchmark's
	// fingerprint: a never-visited state must not appear in it.
	if _, ok := r.Snapshot().Counters["hammer.cache.state.S"]; ok {
		t.Fatal("counter created for state S, which was never visited")
	}
	if StateRecorder(nil, "x", nil) != nil {
		t.Fatalf("nil registry must yield a nil recorder")
	}
}

func TestSnapshotEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty")
	s := r.Snapshot()
	if h, ok := s.Histograms["empty"]; !ok || h.N != 0 {
		t.Fatalf("empty histogram snapshot: %+v ok=%v", h, ok)
	}
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"empty"`) {
		t.Fatalf("empty histogram missing from export:\n%s", b.String())
	}
}

// TestReadSnapshotWholeObject: xgreport's input is one metrics object and
// nothing else. Two objects back to back, an object followed by garbage,
// and a top level that is not an object are each an error — read leniently,
// the first would report half the input and null would report an empty run,
// which a -diff then reads as growth.
func TestReadSnapshotWholeObject(t *testing.T) {
	for _, c := range []struct{ in, err string }{
		{`{"counters": {"a": 1}}{"counters": {"a": 2}}`, "obs: metrics JSON has data after its object"},
		{`{"counters": {"a": 1}} x`, "obs: metrics JSON has data after its object"},
		{`{"counters": {"a": 1}}]`, "obs: metrics JSON has data after its object"},
		{`null`, "obs: metrics JSON is null, not an object"},
		{` [1, 2]`, "obs: metrics JSON is an array, not an object"},
		{`"counters"`, "obs: metrics JSON is a string, not an object"},
		{`true`, "obs: metrics JSON is a boolean, not an object"},
		{`-3`, "obs: metrics JSON is a number, not an object"},
	} {
		_, err := ReadSnapshot(strings.NewReader(c.in))
		if err == nil || err.Error() != c.err {
			t.Errorf("ReadSnapshot(%q) = %v, want %q", c.in, err, c.err)
		}
	}
	for _, in := range []string{`{}`, "  {\"counters\": {\"a\": 1}}\n\n", `{"gauges": null}`} {
		if _, err := ReadSnapshot(strings.NewReader(in)); err != nil {
			t.Errorf("ReadSnapshot(%q): %v", in, err)
		}
	}
}
