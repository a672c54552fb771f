package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// The weakly-coherent accelerator hierarchy of paper §2.1: "an
// accelerator may have multiple private L1s and a shared L2, and a
// programming model that requires an explicit flush before data from one
// core is guaranteed visible at other accelerator L1s. Crossing Guard
// places no restrictions on coherence behavior within the accelerator
// protocol."
//
// It is the two-level hierarchy with the L2's policy changed in a few
// cells. Inside the accelerator, writes are NOT propagated between
// sibling L1s: an M grant leaves sibling copies alone, and each core
// publishes with an explicit Flush, whose write-backs merge whole blocks
// (last writer wins). Toward the HOST the shared WeakL2 remains fully
// coherent — it acquires host write permission through the guard before
// any core dirties a line, and on a guard Invalidate it recalls the line
// from every holder (merging dirty copies) before answering. Host safety
// is therefore unaffected by the accelerator's weak internal model, which
// is exactly the paper's point.

// WeakL1 is one core's incoherent private cache: the inner L1's table,
// under a coverage class of its own, plus Flush.
type WeakL1 struct {
	private
	eng     *sim.Engine
	onFlush func() // the open Flush calls' completions, chained
}

// weakL1 is the weak L1's table: the inner L1's cells. The weak model
// changes what the shared L2 does with a core's requests, not the core's.
var weakL1 = innerL1.Named("weak.L1")

// NewWeakL1 builds and registers a weak private L1.
func NewWeakL1(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	l2 coherence.NodeID, cfg Config) *WeakL1 {
	c := &WeakL1{eng: eng}
	c.init(c, weakL1, id, name, fab, l2, cfg)
	return c
}

// Recv implements coherence.Controller, and completes the open Flush
// calls once the last write-back is acknowledged.
func (c *WeakL1) Recv(m *coherence.Msg) {
	c.private.Recv(m)
	if done := c.onFlush; done != nil && c.WBPending() == 0 {
		c.onFlush = nil
		done()
	}
}

// Reset is the inner L1's device reset; open Flush calls never complete,
// as the waiting core operations never do.
func (c *WeakL1) Reset(epoch uint32) {
	c.private.Reset(epoch)
	c.onFlush = nil
}

// Restart returns the cache to its just-built state for the machine's next
// run. The machine's Reset calls it.
func (c *WeakL1) Restart() {
	c.private.Restart()
	c.onFlush = nil
}

// Flush publishes this core's writes: every line leaves through its
// Replacement cell — a dirty one is written back to the shared L2, a clean
// one dropped — so the next loads (here and at sibling cores, after their
// own flush) observe fresh data. done runs once every write-back is
// acknowledged: the accelerator's release fence.
func (c *WeakL1) Flush(done func()) {
	c.Lines.Visit(func(e *cacheset.Entry[line]) {
		if busy(&e.V) {
			panic(fmt.Sprintf("%s: Flush with operations outstanding", c.Name()))
		}
		addr, v := e.Addr, e.V
		c.Lines.Invalidate(addr)
		c.evict(addr, &v)
	})
	switch prev := c.onFlush; {
	case done == nil:
	case c.WBPending() == 0:
		c.eng.Schedule(1, done)
	case prev != nil:
		c.onFlush = func() { prev(); done() }
	default:
		c.onFlush = done
	}
}

// WeakL2 is the shared L2 of the weakly-coherent hierarchy: the two-level
// hierarchy's shared L2 running weakL2.
type WeakL2 struct{ SharedL2 }

// weakL2 is the shared L2's table with the weak policy's cells: a store's
// M grant leaves sibling copies, so every holder is a sharer and none the
// owner, and a Put from any holder merges its block, whether the line is
// idle or a transaction races it.
var weakL2 = sl2Rules.With(
	coherence.Row[int, sl2Action]{St: sl2NP, Evs: sl2GetM, Do: fetchKeep},
	coherence.Row[int, sl2Action]{St: int(AS), Evs: sl2GetM, Do: lookupKeep},
	coherence.Row[int, sl2Action]{St: int(AE), Evs: sl2GetM, Do: lookupKeep},
	coherence.Row[int, sl2Action]{St: int(AM), Evs: sl2GetM, Do: lookupKeep},
	coherence.Row[int, sl2Action]{St: int(AE), Evs: sl2PutM, Do: mergePut},
	coherence.Row[int, sl2Action]{St: int(AM), Evs: sl2PutM, Do: mergePut},
	coherence.Row[int, sl2Action]{St: sl2Busy + int(AE), Evs: sl2PutM, Do: mergePut},
	coherence.Row[int, sl2Action]{St: sl2Busy + int(AM), Evs: sl2PutM, Do: mergePut},
).Named("weak.L2")

// NewWeakL2 builds and registers the weak shared L2.
func NewWeakL2(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	xg coherence.NodeID, cfg Config) *WeakL2 {
	l := &WeakL2{}
	l.init(l, weakL2, id, name, fab, xg, cfg)
	return l
}
