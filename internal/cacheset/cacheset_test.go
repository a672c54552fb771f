package cacheset

import (
	"testing"
	"testing/quick"

	"crossingguard/internal/mem"
)

type payload struct{ state int }

func TestGeometryValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {3, 2}, {-4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			New[payload](bad[0], bad[1])
		}()
	}
	c := New[payload](4, 2)
	if c.Capacity() != 8 {
		t.Fatalf("capacity %d", c.Capacity())
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New[payload](4, 2)
	if c.Lookup(0x100) != nil {
		t.Fatal("lookup hit on empty cache")
	}
	var victim Entry[payload]
	e, evicted, ok := c.Allocate(0x100, nil, &victim)
	if !ok || evicted {
		t.Fatal("allocate into empty set should not evict")
	}
	e.V.state = 7
	got := c.Lookup(0x13f) // same line as 0x100
	if got == nil || got.V.state != 7 {
		t.Fatal("lookup after allocate missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("Hits=%d Misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[payload](1, 2) // one set, two ways
	var victim Entry[payload]
	a1, _, _ := c.Allocate(0x000, nil, &victim)
	a1.V.state = 1
	a2, _, _ := c.Allocate(0x040, nil, &victim)
	a2.V.state = 2
	c.Lookup(0x000) // make 0x000 MRU
	_, evicted, ok := c.Allocate(0x080, nil, &victim)
	if !ok || !evicted {
		t.Fatal("expected an eviction")
	}
	if victim.Addr != 0x040 || victim.V.state != 2 {
		t.Fatalf("evicted %v state=%d, want LRU line 0x40", victim.Addr, victim.V.state)
	}
	if c.Evictions != 1 {
		t.Fatalf("Evictions = %d", c.Evictions)
	}
}

func TestAllocatePinnedWays(t *testing.T) {
	c := New[payload](1, 2)
	var victim Entry[payload]
	e1, _, _ := c.Allocate(0x000, nil, &victim)
	e1.V.state = 99 // "transient" — pinned
	e2, _, _ := c.Allocate(0x040, nil, &victim)
	e2.V.state = 99
	_, _, ok := c.Allocate(0x080, func(e *Entry[payload]) bool { return e.V.state != 99 }, &victim)
	if ok {
		t.Fatal("allocate should fail with every way pinned")
	}
	if c.Peek(0x000) == nil || c.Peek(0x040) == nil {
		t.Fatal("failed allocate must not disturb contents")
	}
	e1.V.state = 0
	e, evicted, ok := c.Allocate(0x080, func(e *Entry[payload]) bool { return e.V.state != 99 }, &victim)
	if !ok || !evicted || victim.Addr != 0x000 {
		t.Fatalf("expected to evict unpinned 0x000, got victim=%v evicted=%v ok=%v", victim.Addr, evicted, ok)
	}
	if e.Addr != 0x080 {
		t.Fatalf("new entry addr %v", e.Addr)
	}
}

func TestInvalidate(t *testing.T) {
	c := New[payload](4, 2)
	c.Allocate(0x100, nil, new(Entry[payload]))
	if !c.Invalidate(0x100) {
		t.Fatal("invalidate missed present line")
	}
	if c.Invalidate(0x100) {
		t.Fatal("invalidate hit absent line")
	}
	if c.Count() != 0 {
		t.Fatalf("Count = %d after invalidate", c.Count())
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := New[payload](1, 2)
	var victim Entry[payload]
	c.Allocate(0x000, nil, &victim)
	c.Allocate(0x040, nil, &victim)
	c.Peek(0x000) // must NOT refresh; 0x000 stays LRU
	c.Allocate(0x080, nil, &victim)
	if victim.Addr != 0x000 {
		t.Fatalf("Peek refreshed LRU: victim %v", victim.Addr)
	}
}

func TestVisit(t *testing.T) {
	c := New[payload](4, 2)
	for i := 0; i < 5; i++ {
		c.Allocate(mem.Addr(i*0x40), nil, new(Entry[payload]))
	}
	n := 0
	c.Visit(func(e *Entry[payload]) { n++ })
	if n != 5 || c.Count() != 5 {
		t.Fatalf("Visit saw %d, Count %d, want 5", n, c.Count())
	}
}

// Property: after any sequence of allocations, distinct valid entries
// never share a line address, and Count never exceeds capacity.
func TestPropertyNoDuplicateTags(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New[payload](4, 4)
		for _, a := range addrs {
			addr := mem.Addr(a)
			if c.Peek(addr) == nil {
				c.Allocate(addr, nil, new(Entry[payload]))
			}
		}
		seen := make(map[mem.Addr]bool)
		dup := false
		c.Visit(func(e *Entry[payload]) {
			if seen[e.Addr] {
				dup = true
			}
			seen[e.Addr] = true
		})
		return !dup && c.Count() <= c.Capacity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a line just allocated is always found by Lookup.
func TestPropertyAllocateThenLookup(t *testing.T) {
	f := func(a uint32) bool {
		c := New[payload](8, 2)
		c.Allocate(mem.Addr(a), nil, new(Entry[payload]))
		return c.Lookup(mem.Addr(a)) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFreeWaysHoldNothing: a way is in use from Allocate until Invalidate
// or Reset, whatever its address. Line 0, the address a free way reads, is
// found only while allocated; Visit, VisitSet and Count skip free ways;
// and a way freed by Invalidate or Reset is taken before any line is
// evicted, with LRU order starting afresh after Reset.
func TestFreeWaysHoldNothing(t *testing.T) {
	c := New[payload](1, 2)
	var victim Entry[payload]
	visited := func() int {
		n := 0
		c.Visit(func(*Entry[payload]) { n++ })
		return n
	}
	if c.Lookup(0) != nil || c.Peek(0) != nil || c.Count() != 0 || visited() != 0 {
		t.Fatal("an empty cache holds line 0")
	}
	c.Allocate(0, nil, &victim)
	if c.Lookup(0x3f) == nil || c.Peek(0) == nil || c.Count() != 1 || visited() != 1 {
		t.Fatal("allocated line 0 not found")
	}
	c.Allocate(0x40, nil, &victim)
	if !c.Invalidate(0) || c.Peek(0) != nil || c.Lookup(0) != nil || c.Count() != 1 || visited() != 1 {
		t.Fatal("invalidated line 0 still found")
	}
	if _, evicted, ok := c.Allocate(0x80, nil, &victim); !ok || evicted {
		t.Fatalf("Allocate after Invalidate: evicted %v, ok %v; want the freed way", evicted, ok)
	}
	c.Reset()
	if c.Count() != 0 || visited() != 0 || c.Peek(0x40) != nil || c.Hits+c.Misses+c.Evictions != 0 {
		t.Fatalf("after Reset: Count %d, counters %d/%d/%d", c.Count(), c.Hits, c.Misses, c.Evictions)
	}
	for _, a := range []mem.Addr{0, 0x40} {
		if _, evicted, ok := c.Allocate(a, nil, &victim); !ok || evicted {
			t.Fatalf("Allocate(%v) after Reset: evicted %v, ok %v", a, evicted, ok)
		}
	}
	n := 0
	c.VisitSet(0, func(*Entry[payload]) { n++ })
	if n != 2 {
		t.Fatalf("VisitSet saw %d ways, want 2", n)
	}
	c.Lookup(0) // line 0 most recent: 0x40 goes
	if _, evicted, _ := c.Allocate(0x80, nil, &victim); !evicted || victim.Addr != 0x40 {
		t.Fatalf("evicted %v (%v), want LRU line 0x40", victim.Addr, evicted)
	}
}
