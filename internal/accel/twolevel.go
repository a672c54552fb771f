package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
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
	id   coherence.NodeID
	name string
	eng  *sim.Engine
	fab  *network.Fabric
	cfg  Config
	l2   coherence.NodeID

	cache *cacheset.Cache[innerLine]
	wb    map[mem.Addr]*mem.Block // evicted M lines awaiting XWBAck: their data
	// waitingOps and stalledOps hold core operations only: sequencer
	// requests, which belong to this cache until it replies.
	waitingOps coherence.LineQueues
	stalledOps []*coherence.Msg
	// doCPU is handleCPU bound once (CallAfter's handler).
	doCPU func(*coherence.Msg)

	// epoch is the guard epoch the hierarchy operates under (0 until the
	// first device reset); stamped on every protocol send, checked on
	// every protocol receive.
	epoch uint32
	// StaleDrops counts protocol messages dropped for a stale epoch.
	StaleDrops uint64

	Cov *coherence.Coverage
}

// NewInnerL1 builds and registers a private accelerator L1.
func NewInnerL1(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	l2 coherence.NodeID, cfg Config) *InnerL1 {
	c := &InnerL1{
		id: id, name: name, eng: eng, fab: fab, cfg: cfg, l2: l2,
		cache:      cacheset.New[innerLine](cfg.L1Sets, cfg.L1Ways),
		wb:         make(map[mem.Addr]*mem.Block),
		waitingOps: make(coherence.LineQueues),
		Cov:        NewInnerL1Coverage(),
	}
	c.doCPU = c.handleCPU
	fab.Register(c)
	return c
}

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

// ID implements coherence.Controller.
func (c *InnerL1) ID() coherence.NodeID { return c.id }

// Name implements coherence.Controller.
func (c *InnerL1) Name() string { return c.name }

// Recv implements coherence.Controller.
func (c *InnerL1) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ReqLoad, coherence.ReqStore:
		c.handleCPU(m)
	case coherence.XDataS, coherence.XDataM:
		if m.Epoch != c.epoch {
			c.StaleDrops++
			return
		}
		c.handleData(m)
	case coherence.XWBAck:
		if m.Epoch != c.epoch {
			c.StaleDrops++
			return
		}
		c.handleWBAck(m)
	case coherence.XInv:
		if m.Epoch != c.epoch {
			c.StaleDrops++
			return
		}
		c.handleInv(m)
	default:
		panic(fmt.Sprintf("%s: unexpected %v", c.name, m))
	}
}

// Reset reinitializes the inner L1 under a new guard epoch (the recovery
// protocol's device-reset step): lines to Invalid, in-flight operations
// forgotten (the sequencer abort drops their core ops in the same
// reset).
func (c *InnerL1) Reset(epoch uint32) {
	c.epoch = epoch
	c.cache = cacheset.New[innerLine](c.cfg.L1Sets, c.cfg.L1Ways)
	c.wb = make(map[mem.Addr]*mem.Block)
	c.waitingOps = make(coherence.LineQueues)
	c.stalledOps = nil
}

// send takes a message holding t from the pool, stamps the hierarchy's
// epoch on it and hands it to the fabric.
func (c *InnerL1) send(t coherence.Msg) {
	t.Src, t.Epoch = c.id, c.epoch
	c.fab.Send(c.fab.Msg(t))
}

// invalidate drops the line and gives its block back.
func (c *InnerL1) invalidate(e *cacheset.Entry[innerLine]) {
	c.fab.FreeBlock(e.V.data)
	c.cache.Invalidate(e.Addr)
}

func (c *InnerL1) handleCPU(m *coherence.Msg) {
	line := m.Addr.Line()
	if _, busy := c.wb[line]; busy {
		c.Cov.Record(int(NB), opEv(m))
		c.waitingOps.Push(line, m)
		return
	}
	e := c.cache.Lookup(m.Addr)
	if e != nil && e.V.state == NB {
		c.Cov.Record(int(NB), opEv(m))
		c.waitingOps.Push(line, m)
		return
	}
	isStore := m.Type == coherence.ReqStore
	if e == nil {
		c.Cov.Record(int(NI), opEv(m))
		var victim cacheset.Entry[innerLine]
		var evicted, ok bool
		e, evicted, ok = c.cache.Allocate(m.Addr, func(e *cacheset.Entry[innerLine]) bool {
			return e.V.state != NB
		}, &victim)
		if !ok {
			c.stalledOps = append(c.stalledOps, m)
			return
		}
		if evicted {
			c.evict(victim.Addr, &victim.V)
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
		c.respond(m, e.V.data[m.Addr.Offset()])
	case e.V.state == NM:
		e.V.data[m.Addr.Offset()] = m.Val
		c.respond(m, 0)
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
		c.wb[addr] = v.data // the buffer takes the victim's block over
		c.send(coherence.Msg{Type: coherence.XPutM, Addr: addr, Dst: c.l2, Data: v.data, Dirty: true})
	case NS:
		c.send(coherence.Msg{Type: coherence.XPutS, Addr: addr, Dst: c.l2})
		c.fab.FreeBlock(v.data)
	default:
		panic(fmt.Sprintf("%s: evicting %v", c.name, v.state))
	}
}

func (c *InnerL1) respond(op *coherence.Msg, val byte) {
	c.fab.SendAfter(c.cfg.HitLat, coherence.Reply(op, c.id, val), nil)
}

func (c *InnerL1) handleData(m *coherence.Msg) {
	e := c.cache.Peek(m.Addr)
	if e == nil || e.V.state != NB || e.V.op == nil {
		panic(fmt.Sprintf("%s: data with no pending get: %v", c.name, m))
	}
	c.Cov.Record(int(NB), innerTable.Event(m.Type))
	op := e.V.op
	e.V.op = nil
	c.fab.FillBlock(&e.V.data, m.Data)
	if m.Type == coherence.XDataM {
		e.V.state = NM
	} else {
		e.V.state = NS
	}
	if op.Type == coherence.ReqStore {
		if e.V.state != NM {
			panic(fmt.Sprintf("%s: DataS answered a store at %v", c.name, m.Addr))
		}
		e.V.data[op.Addr.Offset()] = op.Val
		c.respond(op, 0)
	} else {
		c.respond(op, e.V.data[op.Addr.Offset()])
	}
	c.settled(m.Addr.Line())
}

func (c *InnerL1) handleWBAck(m *coherence.Msg) {
	line := m.Addr.Line()
	if _, ok := c.wb[line]; !ok {
		panic(fmt.Sprintf("%s: WBAck with no writeback", c.name))
	}
	c.Cov.Record(int(NB), innerTable.Event(m.Type))
	c.fab.FreeBlock(c.wb[line])
	delete(c.wb, line)
	c.settled(line)
}

func (c *InnerL1) handleInv(m *coherence.Msg) {
	line := m.Addr.Line()
	if _, busy := c.wb[line]; busy {
		// Our PutM crossed the L2's Inv; the L2 absorbs the Put as the
		// response and ignores this ack.
		c.Cov.Record(int(NB), innerTable.Event(m.Type))
		c.send(coherence.Msg{Type: coherence.XInvAck, Addr: line, Dst: c.l2})
		return
	}
	e := c.cache.Peek(m.Addr)
	st := NI
	if e != nil {
		st = e.V.state
	}
	c.Cov.Record(int(st), innerTable.Event(m.Type))
	switch st {
	case NM:
		c.send(coherence.Msg{Type: coherence.XInvWB, Addr: line, Dst: c.l2, Data: e.V.data, Dirty: true})
		c.invalidate(e)
		c.settled(line)
	case NS:
		c.send(coherence.Msg{Type: coherence.XInvAck, Addr: line, Dst: c.l2})
		c.invalidate(e)
		c.settled(line)
	case NI, NB:
		// Stale-epoch invalidation (we PutS'd and re-requested), or an
		// invalidation while our own request waits: ack, no action.
		c.send(coherence.Msg{Type: coherence.XInvAck, Addr: line, Dst: c.l2})
	}
}

func (c *InnerL1) settled(line mem.Addr) {
	if next := c.waitingOps.Pop(line); next != nil {
		c.fab.CallAfter(0, c.doCPU, next)
	}
	for _, op := range c.stalledOps {
		c.fab.CallAfter(0, c.doCPU, op)
	}
	c.stalledOps = c.stalledOps[:0]
}

// Outstanding reports open transactions.
func (c *InnerL1) Outstanding() int {
	n := len(c.wb) + len(c.stalledOps) + c.waitingOps.Len()
	c.cache.Visit(func(e *cacheset.Entry[innerLine]) {
		if e.V.state == NB {
			n++
		}
	})
	return n
}

// VisitStable reports stable lines for invariant checks.
func (c *InnerL1) VisitStable(fn func(addr mem.Addr, st InnerState, data *mem.Block)) {
	c.cache.Visit(func(e *cacheset.Entry[innerLine]) {
		if e.V.state == NS || e.V.state == NM {
			fn(e.Addr, e.V.state, e.V.data)
		}
	})
}
