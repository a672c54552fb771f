package coherence

import (
	"fmt"
	"slices"
	"sort"
)

// Table is the vocabulary of one controller class, declared once in the
// controller's package: the names of its states and of its events. A state
// or event is the index of its name, so recording a transition is integer
// arithmetic. A Table is immutable and shared by the class's coverages.
type Table struct {
	states, events []string
	// col maps a message type to its event index, -1 where the class
	// has no such event.
	col [NumMsgTypes]int8
}

// NewTable declares a class vocabulary. Events 0..len(local)-1 are the
// controller-local events (Load, Store, Replacement) in the order given;
// the message types follow in order, named by MsgType.String. msgs lists
// every type the class's protocol can address to it, not only those it
// expects: an undeclared pair must still have a cell to be reported in.
func NewTable(states, local []string, msgs ...MsgType) *Table {
	t := &Table{states: states, events: append([]string(nil), local...)}
	for i := range t.col {
		t.col[i] = -1
	}
	for _, m := range msgs {
		t.col[m] = int8(len(t.events))
		t.events = append(t.events, m.String())
	}
	return t
}

// States returns the state names, indexed by state.
func (t *Table) States() []string { return t.states }

// Events returns the event names, indexed by event.
func (t *Table) Events() []string { return t.events }

// Event returns the event index of message type m, or -1 (which Record
// rejects) when the class has no such event.
func (t *Table) Event(m MsgType) int { return int(t.col[m]) }

// Coverage records which (state, event) pairs a controller has exercised,
// the accounting of the paper's stress test (§4.1): "we counted the
// state/event pairs that the random tester visited at each cache controller
// and compared it with the number that we believe are possible".
// A controller's Rules declare its reachable pairs, the cells it handles
// (Rules.Coverage); Record marks a visit, in dense arrays over the Table's
// states x events; an undeclared pair visited is a protocol bug, listed in
// Unexpected.
type Coverage struct {
	name   string
	tab    *Table
	nev    int      // len(tab.events): the row stride
	visits []uint64 // [state*nev+event]
	// declared is indexed like visits. It is never written: its Rules and
	// the class's other coverages share it.
	declared []bool
	possible int // declared pairs
	// Unexpected lists visited pairs that were never declared possible,
	// rendered "state/event", one entry per visit.
	Unexpected []string
	// OnRecord, when non-nil, observes every Record call. The obs layer
	// hooks per-state transition counters here (obs.StateRecorder)
	// without this package importing it.
	OnRecord func(state, event int)
}

// NewCoverage returns an empty recorder for the named controller class
// over its vocabulary t. A nil t makes a bare coverage, which can only
// be merged into: it takes the vocabulary of the first coverage merged.
func NewCoverage(name string, t *Table) *Coverage {
	c := &Coverage{name: name}
	if t != nil {
		c.adopt(t, make([]bool, len(t.states)*len(t.events)), 0)
	}
	return c
}

// adopt gives c the vocabulary t, no visits, and the declarations of the
// declared array, which c only reads.
func (c *Coverage) adopt(t *Table, declared []bool, possible int) {
	c.tab, c.nev = t, len(t.events)
	c.visits = make([]uint64, len(t.states)*c.nev)
	c.declared, c.possible = declared, possible
}

// cell returns the array index of (state, event). An event outside the
// table would otherwise alias a cell of the next state's row.
func (c *Coverage) cell(state, event int) int {
	if uint(event) >= uint(c.nev) {
		panic(fmt.Sprintf("coherence: %s coverage has no event %d", c.name, event))
	}
	return state*c.nev + event
}

// pairName renders cell i as "state/event".
func (c *Coverage) pairName(i int) string {
	return c.tab.states[i/c.nev] + "/" + c.tab.events[i%c.nev]
}

// Record notes a visit to (state, event).
func (c *Coverage) Record(state, event int) {
	i := c.cell(state, event)
	if !c.declared[i] {
		c.Unexpected = append(c.Unexpected, c.pairName(i))
	}
	c.visits[i]++
	if c.OnRecord != nil {
		c.OnRecord(state, event)
	}
}

// Reset zeroes the visit counts and empties Unexpected, keeping the
// declarations and the storage: the coverage of a machine that is reset.
// A nil coverage (a cache that declares no table) is left alone.
func (c *Coverage) Reset() {
	if c == nil {
		return
	}
	clear(c.visits)
	clear(c.Unexpected)
	c.Unexpected = c.Unexpected[:0]
}

// Name returns the controller class name.
func (c *Coverage) Name() string { return c.name }

// States returns the class's state names, indexed by state.
func (c *Coverage) States() []string { return c.tab.states }

// Possible returns the number of declared pairs.
func (c *Coverage) Possible() int { return c.possible }

// Visited returns the number of distinct pairs seen.
func (c *Coverage) Visited() int {
	n := 0
	for _, v := range c.visits {
		if v != 0 {
			n++
		}
	}
	return n
}

// Visits returns the total transition count.
func (c *Coverage) Visits() uint64 {
	var n uint64
	for _, v := range c.visits {
		n += v
	}
	return n
}

// Missing returns declared pairs never visited, sorted.
func (c *Coverage) Missing() []string {
	var out []string
	for i, d := range c.declared {
		if d && c.visits[i] == 0 {
			out = append(out, c.pairName(i))
		}
	}
	sort.Strings(out)
	return out
}

// Merge folds other's visit counts into c (a class's instances, runs or
// campaign shards); merging coverages of different vocabularies panics.
// Counts add and declarations union, so merging into a bare NewCoverage
// keeps the class's declarations, and Merge is commutative and
// associative up to the order of the Unexpected list it appends.
func (c *Coverage) Merge(other *Coverage) {
	c.Unexpected = append(c.Unexpected, other.Unexpected...)
	if other.tab == nil {
		return
	}
	switch {
	case c.tab == nil:
		c.adopt(other.tab, other.declared, other.possible)
	case c.tab != other.tab:
		panic(fmt.Sprintf("coherence: merging %s coverage into %s: different tables", other.name, c.name))
	default:
		// The union goes in a new array, made only when other declares a
		// pair c does not: coverages of one table share their Rules'.
		var union []bool
		for i, d := range other.declared {
			if d && !c.declared[i] {
				if union == nil {
					union = slices.Clone(c.declared)
				}
				union[i] = true
				c.possible++
			}
		}
		if union != nil {
			c.declared = union
		}
	}
	for i, v := range other.visits {
		c.visits[i] += v
	}
}

// Snapshot returns a copy of the visit counts keyed by "state/event",
// the canonical form used by aggregation tests to compare merge results.
func (c *Coverage) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	for i, v := range c.visits {
		if v != 0 {
			out[c.pairName(i)] = v
		}
	}
	return out
}

// Summary renders a one-line coverage report.
func (c *Coverage) Summary() string {
	return fmt.Sprintf("%-14s %4d/%-4d pairs (%5.1f%%), %d visits, %d unexpected",
		c.name, c.Visited(), c.Possible(),
		100*float64(c.Visited())/float64(c.Possible()), c.Visits(), len(c.Unexpected))
}
