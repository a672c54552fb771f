// Package cacheset provides a generic set-associative cache container
// with true-LRU replacement, shared by every cache controller in the
// system (host L1s, Hammer L1/L2, accelerator L1s and L2, and the
// Full-State Crossing Guard block table). The container manages tags,
// sets, and LRU ordering; protocol state lives in the type parameter.
package cacheset

import (
	"fmt"

	"crossingguard/internal/mem"
)

// Entry is one cache way: a tag plus protocol-specific payload. A way in
// use carries an LRU stamp of at least 1; a free way's stamp is 0.
type Entry[T any] struct {
	Addr mem.Addr // line address; meaningful only while the way is in use
	lru  uint64
	V    T
}

// valid reports a way in use.
func (e *Entry[T]) valid() bool { return e.lru != 0 }

// Cache is a set-associative array of Entry.
type Cache[T any] struct {
	sets    int
	ways    int
	entries []Entry[T] // sets*ways, row-major by set
	tick    uint64

	// Hits/Misses/Evictions count Lookup and Allocate outcomes.
	Hits, Misses, Evictions uint64
}

// New returns a cache with the given geometry. sets must be a power of
// two so that index extraction is a mask.
func New[T any](sets, ways int) *Cache[T] {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cacheset: bad geometry %dx%d (sets must be a power of two)", sets, ways))
	}
	return &Cache[T]{sets: sets, ways: ways, entries: make([]Entry[T], sets*ways)}
}

// Reset invalidates every entry and zeroes the counters, keeping the
// array: the cache as New built it.
func (c *Cache[T]) Reset() {
	clear(c.entries)
	*c = Cache[T]{sets: c.sets, ways: c.ways, entries: c.entries}
}

// Sets reports the number of sets.
func (c *Cache[T]) Sets() int { return c.sets }

// Ways reports the associativity.
func (c *Cache[T]) Ways() int { return c.ways }

// Capacity returns the number of lines the cache can hold.
func (c *Cache[T]) Capacity() int { return c.sets * c.ways }

func (c *Cache[T]) setOf(addr mem.Addr) []Entry[T] {
	idx := int(addr>>mem.BlockShift) & (c.sets - 1)
	return c.entries[idx*c.ways : (idx+1)*c.ways]
}

// Lookup returns the entry holding addr's line, or nil. A hit refreshes
// LRU state and counts toward Hits; a miss counts toward Misses.
func (c *Cache[T]) Lookup(addr mem.Addr) *Entry[T] {
	line := addr.Line()
	set := c.setOf(addr)
	for i := range set {
		if set[i].valid() && set[i].Addr == line {
			c.tick++
			set[i].lru = c.tick
			c.Hits++
			return &set[i]
		}
	}
	c.Misses++
	return nil
}

// Peek returns the entry without touching LRU or statistics.
func (c *Cache[T]) Peek(addr mem.Addr) *Entry[T] {
	line := addr.Line()
	set := c.setOf(addr)
	for i := range set {
		if set[i].valid() && set[i].Addr == line {
			return &set[i]
		}
	}
	return nil
}

// Allocate installs a line for addr, assuming it is not present. It
// prefers an invalid way; otherwise it evicts the LRU entry among those
// for which canEvict returns true (nil canEvict means all are eligible).
// It returns the new entry; when an eviction occurred, evicted is true and
// the victim has been copied into *victim, a slot the caller owns (so the
// copy costs no allocation). ok is false — and the cache unchanged — when
// every way is pinned by canEvict; callers must then stall and retry.
func (c *Cache[T]) Allocate(addr mem.Addr, canEvict func(*Entry[T]) bool, victim *Entry[T]) (e *Entry[T], evicted, ok bool) {
	line := addr.Line()
	set := c.setOf(addr)
	var best *Entry[T]
	for i := range set {
		if !set[i].valid() {
			best = &set[i]
			break
		}
	}
	if best == nil {
		for i := range set {
			if canEvict != nil && !canEvict(&set[i]) {
				continue
			}
			if best == nil || set[i].lru < best.lru {
				best = &set[i]
			}
		}
		if best == nil {
			return nil, false, false
		}
		*victim = *best // copy before overwrite
		evicted = true
		c.Evictions++
	}
	c.tick++
	var zero T
	*best = Entry[T]{Addr: line, lru: c.tick, V: zero}
	return best, evicted, true
}

// Invalidate removes addr's line if present and returns whether it was.
func (c *Cache[T]) Invalidate(addr mem.Addr) bool {
	if e := c.Peek(addr); e != nil {
		var zero Entry[T]
		*e = zero
		return true
	}
	return false
}

// VisitSet calls fn for every valid entry in the set addr maps to;
// controllers use it to choose recall victims with protocol knowledge.
func (c *Cache[T]) VisitSet(addr mem.Addr, fn func(*Entry[T])) {
	set := c.setOf(addr)
	for i := range set {
		if set[i].valid() {
			fn(&set[i])
		}
	}
}

// LRUOrder returns a value that increases with recency of use; callers
// compare entries' LRUOrder to find the least recently used candidate.
func (c *Cache[T]) LRUOrder(e *Entry[T]) uint64 { return e.lru }

// Visit calls fn for every valid entry.
func (c *Cache[T]) Visit(fn func(*Entry[T])) {
	for i := range c.entries {
		if c.entries[i].valid() {
			fn(&c.entries[i])
		}
	}
}

// Count returns the number of valid entries.
func (c *Cache[T]) Count() int {
	n := 0
	for i := range c.entries {
		if c.entries[i].valid() {
			n++
		}
	}
	return n
}
