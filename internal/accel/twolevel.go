package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
)

// The two-level accelerator hierarchy of paper Figure 2d: private MSI L1s
// per accelerator core behind a shared, inclusive accelerator L2. Only
// the L2 speaks the Crossing Guard interface, so data moves between
// accelerator cores without crossing to the host — the paper's
// demonstration that the interface "does not constrain cache design in
// terms of inclusivity or number of levels" (§2.4). The internal protocol
// is deliberately different from both host protocols: MSI, L2-serialized,
// with invalidation acks collected at the L2.

// --- private accelerator L1 (MSI + B) ---

// InnerState is the accelerator-internal L1 line state.
type InnerState int

const (
	NI InnerState = iota // Invalid
	NS                   // Shared
	NM                   // Modified
	NB                   // Busy: a request is outstanding to the shared L2
)

var innerStateNames = [...]string{NI: "I", NS: "S", NM: "M", NB: "B"}

// String returns the one-letter inner-protocol state name.
func (s InnerState) String() string { return innerStateNames[s] }

// innerLine is the payload of one inner (or weak) L1 line. data is the
// cache's own block, taken from the machine's block list at fill and given
// back at invalidation.
type innerLine struct {
	state InnerState
	data  *mem.Block
	op    *coherence.Msg
}

// InnerL1 is one accelerator core's private L1 in the two-level design.
type InnerL1 struct {
	// The chassis's write-back buffer holds evicted M lines awaiting XWBAck.
	chassis.L1[innerLine]
	l2 coherence.NodeID

	// epoch is the guard epoch the hierarchy operates under (0 until the
	// first device reset); stamped on every protocol send, checked on
	// every protocol receive.
	epoch uint32
	// StaleDrops counts protocol messages dropped for a stale epoch.
	StaleDrops uint64
}

// NewInnerL1 builds and registers a private accelerator L1.
func NewInnerL1(id coherence.NodeID, name string, fab *network.Fabric, l2 coherence.NodeID, cfg Config) *InnerL1 {
	c := &InnerL1{l2: l2}
	c.Init(c, id, name, fab, cfg.L1Sets, cfg.L1Ways, cfg.HitLat, NewInnerL1Coverage(), innerBusy, c.evict, c.handleCPU)
	return c
}

// innerBusy reports an inner (or weak) L1 line with a request outstanding.
func innerBusy(v *innerLine) bool { return v.state == NB }

// innerTable is the inner L1's coverage vocabulary: states by InnerState,
// events the local three plus the shared L2's messages to an inner L1.
var innerTable = coherence.NewTable(innerStateNames[:], localEvents,
	coherence.XDataS, coherence.XDataM, coherence.XInv, coherence.XWBAck)

// NewInnerL1Coverage declares reachable (state, event) pairs.
func NewInnerL1Coverage() *coherence.Coverage {
	cov := coherence.NewCoverage("accel2L.L1", innerTable)
	cov.DeclareAll([]int{int(NI), int(NS), int(NM), int(NB)},
		[]int{evLoad, evStore, evReplacement, innerTable.Event(coherence.XInv),
			innerTable.Event(coherence.XDataS), innerTable.Event(coherence.XDataM), innerTable.Event(coherence.XWBAck)})
	return cov
}

// Recv implements coherence.Controller.
func (c *InnerL1) Recv(m *coherence.Msg) {
	if m.Type == coherence.ReqLoad || m.Type == coherence.ReqStore {
		c.handleCPU(m)
		return
	}
	if m.Epoch != c.epoch {
		c.StaleDrops++
		return
	}
	switch m.Type {
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

// Reset reinitializes the inner L1 under a new guard epoch (the recovery
// protocol's device-reset step): lines to Invalid, in-flight operations
// forgotten (the sequencer abort drops their core ops in the same
// reset).
func (c *InnerL1) Reset(epoch uint32) {
	c.epoch = epoch
	c.L1.Reset()
}

// send takes a message holding t from the pool, stamps the hierarchy's
// epoch on it and hands it to the fabric.
func (c *InnerL1) send(t coherence.Msg) {
	t.Src, t.Epoch = c.ID(), c.epoch
	c.Fab.Send(c.Fab.Msg(t))
}

func (c *InnerL1) handleCPU(m *coherence.Msg) {
	line := m.Addr.Line()
	e, ok := c.Admit(line, m)
	if !ok {
		c.Cov.Record(int(NB), opEv(m))
		return
	}
	isStore := m.Type == coherence.ReqStore
	if e == nil {
		c.Cov.Record(int(NI), opEv(m))
		if e = c.Allocate(line, m); e == nil {
			return
		}
		ty := coherence.XGetS
		if isStore {
			ty = coherence.XGetM
		}
		e.V = innerLine{state: NB, op: m}
		c.send(coherence.Msg{Type: ty, Addr: line, Dst: c.l2})
		return
	}
	c.Cov.Record(int(e.V.state), opEv(m))
	switch {
	case !isStore:
		c.Respond(m, e.V.data[m.Addr.Offset()])
	case e.V.state == NM:
		e.V.data[m.Addr.Offset()] = m.Val
		c.Respond(m, 0)
	default: // store to S: upgrade
		e.V.state = NB
		e.V.op = m
		c.send(coherence.Msg{Type: coherence.XGetM, Addr: line, Dst: c.l2})
	}
}

func (c *InnerL1) evict(addr mem.Addr, v *innerLine) {
	c.Cov.Record(int(v.state), evReplacement)
	switch v.state {
	case NM:
		c.Buffer(addr, v) // the buffer takes the victim's block over
		c.send(coherence.Msg{Type: coherence.XPutM, Addr: addr, Dst: c.l2, Data: v.data, Dirty: true})
	case NS:
		c.send(coherence.Msg{Type: coherence.XPutS, Addr: addr, Dst: c.l2})
		c.Fab.FreeBlock(v.data)
	default:
		panic(fmt.Sprintf("%s: evicting %v", c.Name(), v.state))
	}
}

func (c *InnerL1) handleData(m *coherence.Msg) {
	e := c.Lines.Peek(m.Addr)
	if e == nil || e.V.state != NB || e.V.op == nil {
		panic(fmt.Sprintf("%s: data with no pending get: %v", c.Name(), m))
	}
	c.Cov.Record(int(NB), innerTable.Event(m.Type))
	op := e.V.op
	e.V.op = nil
	c.Fab.FillBlock(&e.V.data, m.Data)
	if m.Type == coherence.XDataM {
		e.V.state = NM
	} else {
		e.V.state = NS
	}
	if op.Type == coherence.ReqStore {
		if e.V.state != NM {
			panic(fmt.Sprintf("%s: DataS answered a store at %v", c.Name(), m.Addr))
		}
		e.V.data[op.Addr.Offset()] = op.Val
		c.Respond(op, 0)
	} else {
		c.Respond(op, e.V.data[op.Addr.Offset()])
	}
	c.Settled(m.Addr.Line())
}

func (c *InnerL1) handleWBAck(m *coherence.Msg) {
	line := m.Addr.Line()
	wl := c.Buffered(line)
	if wl == nil {
		panic(fmt.Sprintf("%s: WBAck with no writeback", c.Name()))
	}
	c.Cov.Record(int(NB), innerTable.Event(m.Type))
	c.Retire(line, wl.data)
}

func (c *InnerL1) handleInv(m *coherence.Msg) {
	line := m.Addr.Line()
	if c.Buffered(line) != nil {
		// Our PutM crossed the L2's Inv; the L2 absorbs the Put as the
		// response and ignores this ack.
		c.Cov.Record(int(NB), innerTable.Event(m.Type))
		c.send(coherence.Msg{Type: coherence.XInvAck, Addr: line, Dst: c.l2})
		return
	}
	e := c.Lines.Peek(m.Addr)
	st := NI
	if e != nil {
		st = e.V.state
	}
	c.Cov.Record(int(st), innerTable.Event(m.Type))
	switch st {
	case NM:
		c.send(coherence.Msg{Type: coherence.XInvWB, Addr: line, Dst: c.l2, Data: e.V.data, Dirty: true})
		c.Drop(e, e.V.data)
		c.Settled(line)
	case NS:
		c.send(coherence.Msg{Type: coherence.XInvAck, Addr: line, Dst: c.l2})
		c.Drop(e, e.V.data)
		c.Settled(line)
	case NI, NB:
		// Stale-epoch invalidation (we PutS'd and re-requested), or an
		// invalidation while our own request waits: ack, no action.
		c.send(coherence.Msg{Type: coherence.XInvAck, Addr: line, Dst: c.l2})
	}
}

// Held reports stable lines for invariant checks.
func (c *InnerL1) Held(fn chassis.HeldFunc) { heldInner(c.Lines, fn) }

// heldInner reports the stable lines of an inner (or weak) L1: S is a
// shared copy, M a written one.
func heldInner(lines *cacheset.Cache[innerLine], fn chassis.HeldFunc) {
	lines.Visit(func(e *cacheset.Entry[innerLine]) {
		switch e.V.state {
		case NS:
			fn(e.Addr, chassis.Shared, e.V.data, false)
		case NM:
			fn(e.Addr, chassis.Modified, e.V.data, true)
		}
	})
}
