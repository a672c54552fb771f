// Package chassis is the controller skeleton every core-facing private
// cache shares: identity, the tag array, the write-back buffer, the queues
// of core operations that wait, and the replays that wake them. A protocol
// (hammer.Cache, mesi.L1, xlate.WideAccel, and accel's table interpreter
// under L1Cache, InnerL1 and WeakL1) embeds an L1 over its own line type
// and keeps only its Recv and its transitions.
package chassis

import (
	"slices"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// L1 is the chassis of one private cache over the protocol's line type L
// and transaction record type T: a busy line points to one of Txns.
// Core operations (sequencer requests) belong to the cache until it
// replies; the chassis parks them behind a busy or buffered line, stalls
// them when no way can be evicted, and replays them through the
// protocol's core-operation handler.
type L1[L, T any] struct {
	id     coherence.NodeID
	name   string
	hitLat sim.Time
	// Fab is the machine's fabric: the protocol's sends and pooled blocks.
	Fab *network.Fabric
	// Lines is the tag array; V is the protocol's line.
	Lines *cacheset.Cache[L]
	// Cov records (state, event) coverage over the protocol's table; nil
	// when the protocol declares none.
	Cov *coherence.Coverage
	// Txns are the records of the lines with a transaction open.
	Txns coherence.Txns[T]

	// wb is the write-back buffer: evicted lines whose protocol has not
	// closed yet, each still a line of the protocol's own type. A handful
	// at most, found by scanning.
	wb      []cacheset.Entry[L]
	waiting coherence.LineQueues // operations parked behind one line
	stalled []*coherence.Msg     // operations no way could be found for
	victim  cacheset.Entry[L]    // Allocate's eviction slot

	// The protocol's hooks, bound once by Init. A method value made per
	// call, or a victim local to Allocate whose address reaches one of
	// them, costs a heap object per miss.
	busy     func(*L) bool
	canEvict func(*cacheset.Entry[L]) bool
	evict    func(addr mem.Addr, v *L)
	cpu      func(*coherence.Msg)
}

// Init builds the chassis and registers self, the protocol embedding it,
// with the fabric under id. busy reports a line with an open transaction;
// evict starts the replacement of a stable victim (it may Buffer it); cpu
// is the protocol's core-operation handler, which replays go through.
func (c *L1[L, T]) Init(self coherence.Controller, id coherence.NodeID, name string, fab *network.Fabric,
	sets, ways int, hitLat sim.Time, cov *coherence.Coverage,
	busy func(*L) bool, evict func(mem.Addr, *L), cpu func(*coherence.Msg)) {
	c.id, c.name, c.hitLat, c.Fab, c.Cov = id, name, hitLat, fab, cov
	c.busy, c.evict, c.cpu = busy, evict, cpu
	c.canEvict = func(e *cacheset.Entry[L]) bool { return !busy(&e.V) }
	c.Lines = cacheset.New[L](sets, ways)
	fab.Register(self)
}

// Coverage returns Cov.
func (c *L1[L, T]) Coverage() *coherence.Coverage { return c.Cov }

// ID implements coherence.Controller.
func (c *L1[L, T]) ID() coherence.NodeID { return c.id }

// Name implements coherence.Controller.
func (c *L1[L, T]) Name() string { return c.name }

// Reset forgets every line, buffered write-back and waiting operation (a
// device reset; the sequencer aborts the operations in the same reset),
// keeping the storage. Coverage is cumulative and survives it.
func (c *L1[L, T]) Reset() {
	c.Lines.Reset()
	c.Txns.Reset()
	c.waiting.Reset()
	clear(c.wb)
	clear(c.stalled)
	c.wb, c.stalled = c.wb[:0], c.stalled[:0]
	c.victim = cacheset.Entry[L]{}
}

// Admit looks up the line of core operation m. ok is false when the line
// is in the write-back buffer or busy: m is then parked and replays once
// the line settles. Otherwise e is the line, nil on a miss.
func (c *L1[L, T]) Admit(line mem.Addr, m *coherence.Msg) (e *cacheset.Entry[L], ok bool) {
	if c.Buffered(line) == nil {
		if e = c.Lines.Lookup(line); e == nil || !c.busy(&e.V) {
			return e, true
		}
	}
	c.waiting.Push(line, m)
	return nil, false
}

// Allocate finds a way for line, handing a victim to the protocol's
// evict. With every way busy it stalls m, which replays when any line
// settles, and returns nil.
func (c *L1[L, T]) Allocate(line mem.Addr, m *coherence.Msg) *cacheset.Entry[L] {
	e, evicted, ok := c.Lines.Allocate(line, c.canEvict, &c.victim)
	if !ok {
		c.stalled = append(c.stalled, m)
		return nil
	}
	if evicted {
		c.evict(c.victim.Addr, &c.victim.V)
	}
	return e
}

// Buffer moves an evicted line into the write-back buffer, where it keeps
// answering for its address until Retire.
func (c *L1[L, T]) Buffer(line mem.Addr, v *L) {
	if c.wb == nil {
		// First use: room enough that a stress shard's small caches never
		// grow it, and a cache that never evicts pays nothing.
		c.wb = make([]cacheset.Entry[L], 0, 4)
	}
	c.wb = append(c.wb, cacheset.Entry[L]{Addr: line, V: *v})
}

// Buffered returns line's record in the write-back buffer, or nil. The
// pointer is good until the next Buffer or Retire.
func (c *L1[L, T]) Buffered(line mem.Addr) *L {
	for i := range c.wb {
		if c.wb[i].Addr == line {
			return &c.wb[i].V
		}
	}
	return nil
}

// Drop invalidates line e and gives data, its block, back to the pool.
func (c *L1[L, T]) Drop(e *cacheset.Entry[L], data *mem.Block) {
	c.Fab.FreeBlock(data)
	c.Lines.Invalidate(e.Addr)
}

// Retire closes line's write-back, gives data, the block it held (nil for
// none), back to the pool, and wakes what waited for the line.
func (c *L1[L, T]) Retire(line mem.Addr, data *mem.Block) {
	c.Fab.FreeBlock(data)
	for i := range c.wb {
		if c.wb[i].Addr == line {
			c.wb = slices.Delete(c.wb, i, i+1)
			break
		}
	}
	c.Settled(line)
}

// Respond completes core operation op with val after the hit latency.
func (c *L1[L, T]) Respond(op *coherence.Msg, val byte) {
	c.Fab.SendAfter(c.hitLat, coherence.Reply(op, c.id, val), nil)
}

// Settled replays the oldest operation parked behind line, and every
// operation stalled on allocation: a line that settled is a way that may
// now be evicted.
func (c *L1[L, T]) Settled(line mem.Addr) {
	if next := c.waiting.Pop(line); next != nil {
		c.Fab.CallAfter(0, c.cpu, next)
	}
	for _, op := range c.stalled {
		c.Fab.CallAfter(0, c.cpu, op)
	}
	c.stalled = c.stalled[:0]
}

// WBPending reports buffered write-backs (zero at quiesce).
func (c *L1[L, T]) WBPending() int { return len(c.wb) }

// OpenTxns reports the lines with a transaction open (none at quiesce).
func (c *L1[L, T]) OpenTxns() int { return c.Txns.Live() }

// Outstanding reports open transactions: busy lines, buffered write-backs
// and waiting operations.
func (c *L1[L, T]) Outstanding() int {
	return c.Txns.Live() + len(c.wb) + len(c.stalled) + c.waiting.Len()
}
