// Package perm implements the page-permission substrate Crossing Guard
// consults to enforce Guarantee 0 (paper §2.2, §3.1), in the style of
// Border Control [Olson et al., MICRO 2015]: a per-accelerator table of
// page access rights (Read-Write, Read-only, or None) maintained by the
// trusted host, plus a small lookup cache modelling the latency benefit
// of hits.
package perm

import (
	"sync"

	"crossingguard/internal/mem"
)

// Access is a page access right.
type Access int

const (
	// None forbids all accelerator access to the page.
	None Access = iota
	// ReadOnly allows shared/clean access only.
	ReadOnly
	// ReadWrite allows exclusive/modified access.
	ReadWrite
)

// String returns the right's name ("None", "ReadOnly", "ReadWrite").
func (a Access) String() string {
	switch a {
	case None:
		return "None"
	case ReadOnly:
		return "ReadOnly"
	case ReadWrite:
		return "ReadWrite"
	}
	return "Access(?)"
}

// AllowsRead reports whether the right permits any data access.
func (a Access) AllowsRead() bool { return a != None }

// AllowsWrite reports whether the right permits exclusive/dirty access.
func (a Access) AllowsWrite() bool { return a == ReadWrite }

// Table is the OS-maintained page permission table for one accelerator.
// The zero value denies everything, which is the safe default: pages must
// be granted explicitly.
//
// Table is safe for concurrent use so that an OS model and the simulation
// loop may share it, although the simulator itself is single-threaded.
type Table struct {
	mu    sync.RWMutex
	pages map[mem.Addr]Access

	// Default applies to pages not present in the table (normally None).
	Default Access

	// Lookups and Misses count permission-cache behaviour: a lookup for
	// a page not seen since the last Invalidate counts as a miss (which
	// a real Border Control walker would resolve from host page tables).
	Lookups, Misses uint64
	warm            map[mem.Addr]bool
}

// NewTable returns an empty table that denies by default.
func NewTable() *Table {
	return &Table{pages: make(map[mem.Addr]Access), warm: make(map[mem.Addr]bool)}
}

// Reset returns the table to NewTable's state, keeping its maps' storage
// for the next run: it denies every page and counts from zero.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.pages)
	clear(t.warm)
	t.Default, t.Lookups, t.Misses = None, 0, 0
}

// Grant sets the access right for the page containing addr.
func (t *Table) Grant(addr mem.Addr, a Access) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pages[addr.Page()] = a
}

// GrantRange grants [start, start+length) at page granularity.
func (t *Table) GrantRange(start mem.Addr, length uint64, a Access) {
	first := start.Page()
	last := (start + mem.Addr(length) - 1).Page()
	for p := first; ; p += mem.PageBytes {
		t.Grant(p, a)
		if p == last {
			break
		}
	}
}

// Lookup returns the access right for addr, tracking cache warmth.
func (t *Table) Lookup(addr mem.Addr) Access {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Lookups++
	p := addr.Page()
	if !t.warm[p] {
		t.Misses++
		t.warm[p] = true
	}
	if a, ok := t.pages[p]; ok {
		return a
	}
	return t.Default
}

// Peek returns the right without touching cache statistics.
func (t *Table) Peek(addr mem.Addr) Access {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if a, ok := t.pages[addr.Page()]; ok {
		return a
	}
	return t.Default
}
