package core

import (
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
)

// blockEntry records the Full State guard's trusted view of one block the
// accelerator holds (§2.3.1).
type blockEntry struct {
	accel Grant // what the accelerator was granted (S/E/M)
	host  Grant // what the host believes this guard holds
	// copy is a trusted data copy, kept when the host granted ownership
	// of a block the accelerator may only read (Guarantee 0b) so the
	// guard can answer forwards without trusting the accelerator. It is
	// the entry's own block and goes back to the block list with it.
	copy  *mem.Block
	dirty bool
}

// recPool is a free list of *T records: the guard's per-transaction and
// per-block records are recycled through one, so a crossing allocates none
// in steady state. A record comes back zeroed.
type recPool[T any] struct{ free []*T }

func (p *recPool[T]) get() *T {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return new(T)
}

func (p *recPool[T]) put(r *T) {
	var zero T
	*r = zero
	p.free = append(p.free, r)
}

// blockTable is the Full State guard's inclusive directory of every block
// resident in the accelerator hierarchy. Because the interface requires
// PutS, the table tracks exactly the accelerator's contents.
type blockTable struct {
	blocks map[mem.Addr]*blockEntry
	free   recPool[blockEntry]
	pool   *coherence.Pool // the machine's block list, for trusted copies
	// peak tracks the high-water mark for storage reporting.
	peak int
}

func newBlockTable(pool *coherence.Pool) *blockTable {
	return &blockTable{blocks: make(map[mem.Addr]*blockEntry), pool: pool}
}

func (t *blockTable) grant(addr mem.Addr, accel, host Grant, keepCopy bool, data *mem.Block, dirty bool) {
	e := t.blocks[addr]
	if e == nil {
		e = t.free.get()
		t.blocks[addr] = e
	}
	e.accel, e.host, e.dirty = accel, host, dirty
	if keepCopy {
		t.pool.FillBlock(&e.copy, data)
	} else {
		t.pool.FreeBlock(e.copy)
		e.copy = nil
	}
	if len(t.blocks) > t.peak {
		t.peak = len(t.blocks)
	}
}

func (t *blockTable) lookup(addr mem.Addr) *blockEntry { return t.blocks[addr] }

// drop forgets addr; its entry and trusted copy are recycled, so a caller
// still reading either must be done first.
func (t *blockTable) drop(addr mem.Addr) {
	if e, ok := t.blocks[addr]; ok {
		t.pool.FreeBlock(e.copy)
		t.free.put(e)
		delete(t.blocks, addr)
	}
}

func (t *blockTable) entries() int { return len(t.blocks) }

func (t *blockTable) copies() int {
	n := 0
	for _, e := range t.blocks {
		if e.copy != nil {
			n++
		}
	}
	return n
}

// checkRequest enforces Guarantee 1a: the request must be consistent with
// the accelerator's stable state as tracked by the table. It returns a
// violation description, or "" when the request is legal.
func (t *blockTable) checkRequest(addr mem.Addr, ty coherence.MsgType) string {
	e := t.blocks[addr]
	switch ty {
	case coherence.AGetS:
		if e != nil {
			return fmt.Sprintf("GetS but the accelerator already holds the block in %v", e.accel)
		}
	case coherence.AGetM:
		if e != nil && e.accel != GrantS {
			return fmt.Sprintf("GetM but the accelerator already holds the block in %v", e.accel)
		}
	case coherence.APutM:
		if e == nil {
			return "PutM for a block the accelerator does not hold"
		}
		if e.accel == GrantS {
			return "PutM for a block held only in S"
		}
	case coherence.APutE:
		if e == nil {
			return "PutE for a block the accelerator does not hold"
		}
		if e.accel != GrantE {
			return fmt.Sprintf("PutE for a block held in %v", e.accel)
		}
	case coherence.APutS:
		if e == nil {
			return "PutS for a block the accelerator does not hold"
		}
		if e.accel != GrantS {
			return fmt.Sprintf("PutS for a block held in %v", e.accel)
		}
	}
	return ""
}
