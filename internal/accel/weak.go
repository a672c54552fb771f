package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
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
// Inside the accelerator, writes are NOT propagated between sibling L1s:
// each core writes its own copy and publishes with an explicit Flush
// (write back dirty lines + drop clean ones). Toward the HOST the shared
// WeakL2 remains fully coherent — it acquires host write permission
// through the guard before any core dirties a line, and on a guard
// Invalidate it recalls the line from every holder (merging dirty
// copies) before answering. Host safety is therefore unaffected by the
// accelerator's weak internal model, which is exactly the paper's point.

// WeakL1 is one core's incoherent private cache.
type WeakL1 struct {
	// A write-back gives its block back at once, so the chassis's buffer
	// stays empty: flushing counts the acknowledgements still due.
	chassis.L1[line, pending]
	eng *sim.Engine
	l2  coherence.NodeID

	flushing int    // outstanding writebacks, evictions and flushes alike
	onFlush  func() // the open Flush calls' completions, chained
}

// NewWeakL1 builds and registers a weak private L1.
func NewWeakL1(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	l2 coherence.NodeID, cfg Config) *WeakL1 {
	c := &WeakL1{eng: eng, l2: l2}
	c.Init(c, id, name, fab, cfg.L1Sets, cfg.L1Ways, cfg.HitLat, nil, busy, c.evict, c.handleCPU)
	return c
}

// Restart returns the cache to its just-built state for the machine's next
// run, keeping its storage. The machine's Reset calls it.
func (c *WeakL1) Restart() {
	c.Reset()
	c.flushing, c.onFlush = 0, nil
}

// Recv implements coherence.Controller.
func (c *WeakL1) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ReqLoad, coherence.ReqStore:
		c.handleCPU(m)
	case coherence.XDataS, coherence.XDataM:
		c.handleData(m)
	case coherence.XWBAck:
		c.handleWBAck(m)
	case coherence.XInv:
		c.handleInv(m)
	default:
		panic(fmt.Sprintf("%s: unexpected %v", c.Name(), m))
	}
}

// send takes a message holding t from the pool and hands it to the fabric.
func (c *WeakL1) send(t coherence.Msg) {
	t.Src = c.ID()
	c.Fab.Send(c.Fab.Msg(t))
}

func (c *WeakL1) handleCPU(m *coherence.Msg) {
	addr := m.Addr.Line()
	e, ok := c.Admit(addr, m)
	if !ok {
		return
	}
	isStore := m.Type == coherence.ReqStore
	if e == nil {
		if e = c.Allocate(addr, m); e == nil {
			return
		}
		// Writes need host write permission at the L2 (XGetM ensures
		// it) but do NOT invalidate sibling copies (weak model).
		ty := coherence.XGetS
		if isStore {
			ty = coherence.XGetM
		}
		e.V.await(&c.Txns, m)
		c.send(coherence.Msg{Type: ty, Addr: addr, Dst: c.l2})
		return
	}
	switch {
	case !isStore:
		c.Respond(m, e.V.data[m.Addr.Offset()])
	case e.V.state == AM:
		e.V.data[m.Addr.Offset()] = m.Val
		c.Respond(m, 0)
	default: // store to a read-only local copy: upgrade (no sibling invs)
		e.V.await(&c.Txns, m)
		c.send(coherence.Msg{Type: coherence.XGetM, Addr: addr, Dst: c.l2})
	}
}

// evict writes back a dirty (AM) line or drops a clean one, and gives the
// victim's block back.
func (c *WeakL1) evict(addr mem.Addr, v *line) {
	if v.state == AM {
		c.flushing++
		c.send(coherence.Msg{Type: coherence.XPutM, Addr: addr, Dst: c.l2, Data: v.data, Dirty: true})
	} else {
		c.send(coherence.Msg{Type: coherence.XPutS, Addr: addr, Dst: c.l2})
	}
	c.Fab.FreeBlock(v.data)
}

// Flush publishes this core's writes: every dirty line is written back to
// the shared L2 and every line is dropped, so the next loads (here and at
// sibling cores, after their own flush/reload) observe fresh data. done
// runs once all writebacks are acknowledged — the accelerator's release
// fence.
func (c *WeakL1) Flush(done func()) {
	var dirty []*cacheset.Entry[line]
	c.Lines.Visit(func(e *cacheset.Entry[line]) {
		if e.V.state == AB {
			panic(fmt.Sprintf("%s: Flush with operations outstanding", c.Name()))
		}
		dirty = append(dirty, e)
	})
	pending := 0
	for _, e := range dirty {
		if e.V.state == AM {
			pending++
			c.flushing++
			c.send(coherence.Msg{Type: coherence.XPutM, Addr: e.Addr, Dst: c.l2, Data: e.V.data, Dirty: true})
		} else {
			c.send(coherence.Msg{Type: coherence.XPutS, Addr: e.Addr, Dst: c.l2})
		}
		c.Drop(e, e.V.data)
	}
	if pending == 0 {
		if done != nil {
			c.eng.Schedule(1, done)
		}
		return
	}
	remaining := pending
	prev := c.onFlush
	c.onFlush = func() {
		if prev != nil {
			prev()
		}
		remaining--
		if remaining == 0 && done != nil {
			done()
		}
	}
}

func (c *WeakL1) handleData(m *coherence.Msg) {
	e := c.Lines.Peek(m.Addr)
	if e == nil || e.V.txn == nil {
		panic(fmt.Sprintf("%s: data with no pending get: %v", c.Name(), m))
	}
	op := e.V.complete(&c.Txns)
	c.Fab.FillBlock(&e.V.data, m.Data) // in place on an upgrade from S
	if m.Type == coherence.XDataM {
		e.V.state = AM
	} else {
		e.V.state = AS
	}
	if op.Type == coherence.ReqStore {
		e.V.state = AM
		e.V.data[op.Addr.Offset()] = op.Val
		c.Respond(op, 0)
	} else {
		c.Respond(op, e.V.data[op.Addr.Offset()])
	}
	c.Settled(m.Addr.Line())
}

func (c *WeakL1) handleWBAck(m *coherence.Msg) {
	if c.flushing == 0 {
		panic(fmt.Sprintf("%s: WBAck with no writeback", c.Name()))
	}
	c.flushing--
	if c.onFlush != nil {
		cb := c.onFlush
		if c.flushing == 0 {
			c.onFlush = nil
		}
		cb()
	}
	c.Settled(m.Addr.Line())
}

// handleInv: the shared L2 recalls the line on the host's behalf. This
// is the one flow where even the weak hierarchy must cooperate: host
// coherence is not negotiable.
func (c *WeakL1) handleInv(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := c.Lines.Peek(m.Addr)
	if e == nil || e.V.state == AB {
		c.send(coherence.Msg{Type: coherence.XInvAck, Addr: addr, Dst: c.l2})
		return
	}
	if e.V.state == AM {
		c.send(coherence.Msg{Type: coherence.XInvWB, Addr: addr, Dst: c.l2, Data: e.V.data, Dirty: true})
	} else {
		c.send(coherence.Msg{Type: coherence.XInvAck, Addr: addr, Dst: c.l2})
	}
	c.Drop(e, e.V.data)
	c.Settled(addr)
}

// Outstanding reports open transactions.
func (c *WeakL1) Outstanding() int { return c.flushing + c.L1.Outstanding() }

// Held reports the lines the cache holds. They are this core's view only:
// the weak model promises no agreement between sibling copies.
func (c *WeakL1) Held(fn chassis.HeldFunc) { held(c.Lines, fn) }
