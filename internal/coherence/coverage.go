package coherence

import (
	"fmt"
	"sort"
)

// Coverage records which (state, event) pairs a controller has exercised,
// reproducing the coverage accounting of the paper's stress test (§4.1):
// "we counted the state/event pairs that the random tester visited at each
// cache controller and compared it with the number that we believe are
// possible". Controllers Declare their reachable pairs up front; Record
// marks a visit; visiting an undeclared pair is a protocol bug surfaced
// via the Unexpected list.
type Coverage struct {
	name     string
	declared map[pair]bool
	visited  map[pair]uint64
	// Unexpected lists visited pairs that were never declared possible,
	// rendered "state/event".
	Unexpected []string
	// OnRecord, when non-nil, observes every Record call. The obs layer
	// hooks per-state transition counters here (obs.StateRecorder)
	// without this package importing it.
	OnRecord func(state, event string)
}

// NewCoverage returns an empty recorder for the named controller class.
func NewCoverage(name string) *Coverage {
	return &Coverage{
		name:     name,
		declared: make(map[pair]bool),
		visited:  make(map[pair]uint64),
	}
}

// pair keys the coverage maps. Record runs on every protocol transition,
// so the key is the two strings as passed (controllers pass constants):
// hashing them allocates nothing, and the "state/event" form is rendered
// only where a report is built.
type pair struct{ state, event string }

func (p pair) String() string { return p.state + "/" + p.event }

// Declare marks (state, event) as a possible transition.
func (c *Coverage) Declare(state, event string) { c.declared[pair{state, event}] = true }

// DeclareAll declares the cross product states x events.
func (c *Coverage) DeclareAll(states, events []string) {
	for _, s := range states {
		for _, e := range events {
			c.Declare(s, e)
		}
	}
}

// Record notes a visit to (state, event).
func (c *Coverage) Record(state, event string) {
	k := pair{state, event}
	if len(c.declared) > 0 && !c.declared[k] {
		c.Unexpected = append(c.Unexpected, k.String())
	}
	c.visited[k]++
	if c.OnRecord != nil {
		c.OnRecord(state, event)
	}
}

// Name returns the controller class name.
func (c *Coverage) Name() string { return c.name }

// Possible returns the number of declared pairs.
func (c *Coverage) Possible() int { return len(c.declared) }

// Visited returns the number of distinct pairs seen.
func (c *Coverage) Visited() int { return len(c.visited) }

// Visits returns the total transition count.
func (c *Coverage) Visits() uint64 {
	var n uint64
	for _, v := range c.visited {
		n += v
	}
	return n
}

// Missing returns declared pairs never visited, sorted.
func (c *Coverage) Missing() []string {
	var out []string
	for k := range c.declared {
		if c.visited[k] == 0 {
			out = append(out, k.String())
		}
	}
	sort.Strings(out)
	return out
}

// Merge folds other's visit counts into c (same controller class running
// as multiple instances, or across runs or campaign shards). Declared
// pairs are unioned, so merging into a bare NewCoverage preserves the
// class's declaration table. Visit counts add and declared/visited sets
// union, making Merge commutative and associative up to the order of the
// Unexpected list — aggregators that need byte-identical reports (the
// campaign runner) must merge in a deterministic shard order.
func (c *Coverage) Merge(other *Coverage) {
	for k := range other.declared {
		c.declared[k] = true
	}
	for k, v := range other.visited {
		c.visited[k] += v
	}
	c.Unexpected = append(c.Unexpected, other.Unexpected...)
}

// Snapshot returns a copy of the visit counts keyed by "state/event",
// the canonical form used by aggregation tests to compare merge results.
func (c *Coverage) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.visited))
	for k, v := range c.visited {
		out[k.String()] += v
	}
	return out
}

// Summary renders a one-line coverage report.
func (c *Coverage) Summary() string {
	if c.Possible() == 0 {
		return fmt.Sprintf("%-14s %6d pairs visited (%d visits)", c.name, c.Visited(), c.Visits())
	}
	return fmt.Sprintf("%-14s %4d/%-4d pairs (%5.1f%%), %d visits, %d unexpected",
		c.name, c.Visited(), c.Possible(),
		100*float64(c.Visited())/float64(c.Possible()), c.Visits(), len(c.Unexpected))
}
