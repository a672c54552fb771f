package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
)

// The private accelerator caches, paper Table 1's L1Cache and the
// two-level design's InnerL1, are one interpreter running a transition
// table (coherence.Rules). A row names only what the cell sends and the
// state it enters; everything else follows from the event:
//
//   - a core op in a stable state that sends nothing is a hit;
//   - a grant fills the B line, then completes the waiting op by replaying
//     that op's cell from the granted state, which must be a hit;
//   - a Replacement whose next state is B buffers the line until the
//     writeback is acknowledged, any other frees the line's block;
//   - an Inv answered from a valid line drops it; in B or I it only
//     answers, and the guard or the shared L2 resolves the race.

// none is a cell that sends nothing.
const none = coherence.MsgInvalid

// A step is what one cell of a private cache's table does: the message it
// sends and the state it enters.
type step struct {
	send coherence.MsgType
	next AState
}

// on is a cell in the notation of paper Table 1: in state st, event ev (an
// index into the table's vocabulary) sends send and enters next.
func on(st AState, ev int, send coherence.MsgType, next AState) coherence.Row[AState, step] {
	return coherence.Row[AState, step]{St: st, Evs: []int{ev}, Do: step{send, next}}
}

// line is the payload of one private accelerator line. data is the
// cache's own block, taken from the machine's block list at fill and
// given back at invalidation; txn is the record of a line waiting in B
// for a grant.
type line struct {
	state AState
	data  *mem.Block
	txn   *pending
}

// pending is a B line's record: the core operation its grant completes.
type pending struct{ op *coherence.Msg }

// busy reports a line with a request outstanding.
func busy(v *line) bool { return v.state == AB }

// await has line v wait in B for the grant that completes core operation op.
func (v *line) await(txns *coherence.Txns[pending], op *coherence.Msg) {
	v.state, v.txn = AB, txns.Get()
	v.txn.op = op
}

// complete gives line v's record back and returns the operation it held.
func (v *line) complete(txns *coherence.Txns[pending]) *coherence.Msg {
	op := v.txn.op
	txns.Put(v.txn)
	v.txn = nil
	return op
}

// held reports the stable valid lines of a private cache.
func held(lines *cacheset.Cache[line], fn chassis.HeldFunc) {
	lines.Visit(func(e *cacheset.Entry[line]) {
		if e.V.state.Stable() && e.V.state != AI {
			fn(e.Addr, e.V.state.Level(), e.V.data, e.V.state == AM)
		}
	})
}

// private is the interpreter: a chassis cache whose transitions are its
// table's cells. The chassis's write-back buffer holds the lines a
// Replacement left in B.
type private struct {
	chassis.L1[line, pending]
	tab *coherence.Rules[AState, step]
	up  coherence.NodeID // the Crossing Guard endpoint, or the shared L2

	// epoch is the guard epoch the cache operates under (0 until the first
	// device reset), stamped on every send. Protocol messages from another
	// epoch are pre-reset stragglers and are dropped, never dispatched — a
	// stale grant must not be mistaken for an answer to a fresh request.
	epoch uint32
}

// init builds the chassis over t and registers self, the cache type
// embedding c, with the fabric.
func (c *private) init(self coherence.Controller, t *coherence.Rules[AState, step], id coherence.NodeID, name string,
	fab *network.Fabric, up coherence.NodeID, cfg Config) {
	c.tab, c.up = t, up
	c.Init(self, id, name, fab, cfg.L1Sets, cfg.L1Ways, cfg.HitLat, t.Coverage(), busy, c.evict, c.core)
}

// Recv implements coherence.Controller. Of the messages a table's
// vocabulary names, those that are not an Inv or a WBAck are grants.
func (c *private) Recv(m *coherence.Msg) {
	switch {
	case m.Type == coherence.ReqLoad || m.Type == coherence.ReqStore:
		c.core(m)
	case m.Epoch != c.epoch:
		// A pre-reset straggler: dropped.
	case m.Type == coherence.ANack:
		c.nack(m)
	case c.tab.Vocab.Event(m.Type) < 0:
		panic(fmt.Sprintf("%s: unexpected %v", c.Name(), m))
	case m.Type == coherence.AInv || m.Type == coherence.XInv:
		c.inv(m)
	case m.Type == coherence.AWBAck || m.Type == coherence.XWBAck:
		c.wbAck(m)
	default:
		c.grant(m)
	}
}

// Reset reinitializes the cache under a new guard epoch (the recovery
// protocol's device-reset step): every line returns to Invalid and every
// in-flight transaction is forgotten. Waiting core operations are dropped
// without responses — the sequencer aborts them in the same reset.
// Coverage is cumulative and survives the reset.
func (c *private) Reset(epoch uint32) {
	c.epoch = epoch
	c.L1.Reset()
}

// Restart returns the cache to its just-built state for the machine's next
// run, keeping its storage. Unlike a device reset it zeroes coverage too.
// The machine's Reset calls it.
func (c *private) Restart() {
	c.Reset(0)
	c.Cov.Reset()
}

// cellMsg is the message of type t a cell sends to dst for addr: with the
// line's block when t carries data, dirty when t hands back written data.
func cellMsg(t coherence.MsgType, addr mem.Addr, dst coherence.NodeID, data *mem.Block) coherence.Msg {
	if !t.CarriesData() {
		data = nil
	}
	dirty := t == coherence.APutM || t == coherence.ADirtyWB || t == coherence.XPutM || t == coherence.XInvWB
	return coherence.Msg{Type: t, Addr: addr, Dst: dst, Data: data, Dirty: dirty}
}

// send sends cell message t up, stamped with the cache's epoch.
func (c *private) send(t coherence.MsgType, addr mem.Addr, data *mem.Block) {
	m := cellMsg(t, addr, c.up, data)
	m.Src, m.Epoch = c.ID(), c.epoch
	c.Fab.Send(c.Fab.Msg(m))
}

func (c *private) core(m *coherence.Msg) {
	addr, ev := m.Addr.Line(), opEv(m)
	e, ok := c.Admit(addr, m)
	if !ok {
		c.Cov.Record(int(AB), ev)
		return
	}
	st := AI
	if e != nil {
		st = e.V.state
	}
	c.Cov.Record(int(st), ev)
	if e == nil {
		if e = c.Allocate(addr, m); e == nil {
			return
		}
	}
	cell := c.tab.At(st, ev)
	if cell.send == none {
		c.hit(e, cell, m)
		return
	}
	e.V.await(&c.Txns, m) // every request's cell enters B
	c.send(cell.send, addr, nil)
}

// hit completes op on line e, which enters cell's next state.
func (c *private) hit(e *cacheset.Entry[line], cell *step, op *coherence.Msg) {
	e.V.state = cell.next
	if op.Type == coherence.ReqStore {
		e.V.data[op.Addr.Offset()] = op.Val
		c.Respond(op, 0)
	} else {
		c.Respond(op, e.V.data[op.Addr.Offset()])
	}
}

func (c *private) evict(addr mem.Addr, v *line) {
	c.Cov.Record(int(v.state), evReplacement)
	cell := c.tab.At(v.state, evReplacement)
	c.send(cell.send, addr, v.data)
	if cell.next == AB {
		c.Buffer(addr, v) // the buffer takes the victim's block over
	} else {
		c.Fab.FreeBlock(v.data)
	}
}

func (c *private) grant(m *coherence.Msg) {
	e := c.Lines.Peek(m.Addr)
	if e == nil || e.V.txn == nil {
		panic(fmt.Sprintf("%s: data %v with no pending get", c.Name(), m))
	}
	ev := c.tab.Vocab.Event(m.Type)
	c.Cov.Record(int(AB), ev)
	op := e.V.complete(&c.Txns)
	e.V.state = c.tab.At(AB, ev).next
	c.Fab.FillBlock(&e.V.data, m.Data) // in place on an upgrade
	cell := c.tab.At(e.V.state, opEv(op))
	if cell.send != none {
		// DataS answered a GetM? The interfaces forbid it; only a buggy
		// guard or L2 could do this.
		panic(fmt.Sprintf("%s: %v for a %v at %v", c.Name(), m.Type, op.Type, m.Addr))
	}
	c.hit(e, cell, op)
	c.Settled(m.Addr.Line())
}

func (c *private) wbAck(m *coherence.Msg) {
	addr := m.Addr.Line()
	wl := c.Buffered(addr)
	if wl == nil {
		panic(fmt.Sprintf("%s: WBAck with no writeback: %v", c.Name(), m))
	}
	c.Cov.Record(int(AB), c.tab.Vocab.Event(m.Type))
	c.Retire(addr, wl.data)
}

func (c *private) inv(m *coherence.Msg) {
	addr, ev := m.Addr.Line(), c.tab.Vocab.Event(m.Type)
	st, e := AI, c.Lines.Peek(m.Addr)
	var data *mem.Block
	if e != nil {
		st, data = e.V.state, e.V.data
	} else if c.Buffered(addr) != nil {
		st = AB
	}
	c.Cov.Record(int(st), ev)
	cell := c.tab.At(st, ev)
	c.send(cell.send, addr, data)
	if cell.next != st {
		c.Drop(e, data)
		c.Settled(addr)
	}
}

// nack closes a transaction a quarantined guard refused. No response
// reaches the waiting core operation: the device is about to be reset,
// and the sequencer abort drops the operation with it.
func (c *private) nack(m *coherence.Msg) {
	addr := m.Addr.Line()
	if wl := c.Buffered(addr); wl != nil {
		c.Retire(addr, wl.data)
		return
	}
	if e := c.Lines.Peek(m.Addr); e != nil && e.V.state == AB {
		e.V.complete(&c.Txns)
		c.Drop(e, e.V.data)
		c.Settled(addr)
	}
}

// Held reports every stable valid line for invariant checks.
func (c *private) Held(fn chassis.HeldFunc) { held(c.Lines, fn) }
