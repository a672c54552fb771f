// Package obs is the observability layer threaded through the simulator:
// a metrics registry (named counters, gauges, and tick-latency histograms)
// plus a structured trace bus (typed events with pluggable sinks).
//
// Design constraints, in order:
//
//   - Zero allocation on hot paths. Components look their instruments up
//     ONCE at construction and then touch plain struct fields; a counter
//     increment is a nil check and an integer add. Trace emission is
//     guarded by a nil check at every call site, so a simulation with no
//     bus attached pays nothing.
//
//   - Determinism. A Registry is exported with sorted names and merged in
//     caller-chosen (shard-index) order, so campaign reports and metrics
//     files are byte-identical regardless of worker count. Nothing in
//     this package reads the wall clock.
//
//   - One registry per simulated machine. Like the rest of the simulator
//     ("one engine per goroutine, no sharing"), a Registry and a Bus are
//     single-goroutine objects; cross-shard aggregation happens after the
//     worker pool drains, via Merge.
package obs

import (
	"crossingguard/internal/stats"
)

// Counter is a monotonically increasing count. The nil Counter is a
// valid no-op, so components built without a registry need no branches.
type Counter struct {
	v uint64
	life
}

// life is what Seal and Reset mark on an instrument. A registry that is
// reset with its machine keeps every instrument; the ones its machine
// registered at build (sealed) stay listed, at zero, and the ones a run
// created are hidden until the next run looks them up or records into
// them again, so a reset registry lists exactly what a fresh one would.
type life struct {
	sealed, hidden bool
}

// Inc adds one. A counter hidden by Reset is listed again, as a lookup
// would list it, so a component may keep a counter across resets.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
		c.hidden = false
	}
}

// Add adds n, and lists a hidden counter again, like Inc.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
		c.hidden = false
	}
}

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level (queue depth, table occupancy) that
// also remembers its high-water mark. The nil Gauge is a valid no-op.
type Gauge struct {
	v, max int64
	life
}

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add moves the level by d (d may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.Set(g.v + d)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram accumulates a distribution of observations (latencies in
// ticks, queue depths), backed by stats.Counts: exact counts per value,
// so exports answer the paper-style quantiles while an observation costs
// one array index and no memory. The nil Histogram is a valid no-op.
type Histogram struct {
	c stats.Counts
	life
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	if h != nil {
		h.c.Add(x)
	}
}

// Counts exposes the underlying counts (nil for the nil Histogram).
func (h *Histogram) Counts() *stats.Counts {
	if h == nil {
		return nil
	}
	return &h.c
}

// Registry holds named instruments. Components register (or re-fetch —
// the same name always yields the same instrument) at construction time.
// Methods on a nil *Registry return nil instruments, whose methods are
// no-ops, so observability is an opt-in that costs nothing when absent.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	c.hidden = false
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	g.hidden = false
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	h.hidden = false
	return h
}

// Merge folds other's instruments into r: counters add, gauge levels add
// and high-water marks take the max, histogram counts add. Everything
// observed is integer-valued, so the merged registry is the same in any
// merge order, of registries and of the instruments within one; shard-index
// order is still the convention. A nil other is a no-op.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	for name, c := range other.counters {
		if !c.hidden {
			r.Counter(name).Add(c.v)
		}
	}
	for name, og := range other.gauges {
		if og.hidden {
			continue
		}
		g := r.Gauge(name)
		g.v += og.v
		if og.max > g.max {
			g.max = og.max
		}
	}
	for name, h := range other.hists {
		if !h.hidden {
			r.Histogram(name).c.Merge(&h.c)
		}
	}
}

// Clone returns a new registry holding what r lists: what a run's result
// keeps when r goes on to the machine's next run. The copies of each kind
// of instrument share one array, and the histograms' counts another, so a
// clone is a handful of objects however many instruments r lists.
func (r *Registry) Clone() *Registry {
	var nc, ng, nh int
	var slab stats.Slab
	for _, c := range r.counters {
		if !c.hidden {
			nc++
		}
	}
	for _, g := range r.gauges {
		if !g.hidden {
			ng++
		}
	}
	for _, h := range r.hists {
		if !h.hidden {
			nh++
			slab.Fit(&h.c)
		}
	}
	out := &Registry{
		counters: make(map[string]*Counter, nc),
		gauges:   make(map[string]*Gauge, ng),
		hists:    make(map[string]*Histogram, nh),
	}
	cs, gs, hs := make([]Counter, 0, nc), make([]Gauge, 0, ng), make([]Histogram, 0, nh)
	for name, c := range r.counters {
		if !c.hidden {
			cs = append(cs, Counter{v: c.v})
			out.counters[name] = &cs[len(cs)-1]
		}
	}
	for name, g := range r.gauges {
		if !g.hidden {
			gs = append(gs, Gauge{v: g.v, max: g.max})
			out.gauges[name] = &gs[len(gs)-1]
		}
	}
	for name, h := range r.hists {
		if !h.hidden {
			hs = append(hs, Histogram{c: slab.Clone(&h.c)})
			out.hists[name] = &hs[len(hs)-1]
		}
	}
	return out
}

// Seal marks every instrument registered so far as the machine's own:
// Reset zeroes it and keeps it listed.
func (r *Registry) Seal() {
	for _, c := range r.counters {
		c.sealed = true
	}
	for _, g := range r.gauges {
		g.sealed = true
	}
	for _, h := range r.hists {
		h.sealed = true
	}
}

// Reset zeroes every instrument and keeps it, so the pointers components
// hold stay good: a sealed one stays listed, any other is hidden until
// looked up or recorded into again.
func (r *Registry) Reset() {
	for _, c := range r.counters {
		*c = Counter{life: life{sealed: c.sealed, hidden: !c.sealed}}
	}
	for _, g := range r.gauges {
		*g = Gauge{life: life{sealed: g.sealed, hidden: !g.sealed}}
	}
	for _, h := range r.hists {
		h.c.Reset()
		h.hidden = !h.sealed
	}
}

// StateRecorder adapts a Registry to coherence.Coverage's OnRecord hook:
// it counts protocol transitions per originating controller state under
// "<prefix>.state.<state>", states being the class's state names by
// index. A state's counter is created on its first visit — a snapshot
// must not list a state the run never entered — and cached by index, so
// steady state is one slice load per transition, no allocation. The cache
// outlives a Reset; the first visit after one lists the counter again.
func StateRecorder(r *Registry, prefix string, states []string) func(state, event int) {
	if r == nil {
		return nil
	}
	byState := make([]*Counter, len(states))
	return func(state, event int) {
		c := byState[state]
		if c == nil {
			c = r.Counter(prefix + ".state." + states[state])
			byState[state] = c
		}
		c.Inc()
	}
}
