package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// aLine is the payload of one accelerator L1 line. data is the cache's
// own block, taken from the machine's block list at fill and given back
// at invalidation.
type aLine struct {
	state AState
	data  *mem.Block
	// fromGet records what the outstanding request was (B has a single
	// name but, as the paper notes for host protocols too, transients
	// may carry extra information).
	op *coherence.Msg
}

// L1Cache is the single-level accelerator cache of paper Table 1:
// MESI stable states, a single transient state B, five requests out,
// four responses in, one host request (Inv), three responses out.
type L1Cache struct {
	id   coherence.NodeID
	name string
	eng  *sim.Engine
	fab  *network.Fabric
	cfg  Config
	xg   coherence.NodeID // the Crossing Guard endpoint

	cache *cacheset.Cache[aLine]
	wb    map[mem.Addr]*mem.Block // put-origin B entries: the evicted data
	// waitingOps and stalledOps hold core operations only: sequencer
	// requests, which belong to this cache until it replies.
	waitingOps coherence.LineQueues
	stalledOps []*coherence.Msg
	// doCPU is handleCPU bound once (CallAfter's handler).
	doCPU func(*coherence.Msg)

	// epoch is the guard epoch this cache operates under (0 until the
	// first device reset). Guard messages from another epoch are
	// pre-reset stragglers and are dropped, never dispatched — a stale
	// grant must not be mistaken for an answer to a fresh request.
	epoch uint32
	// StaleDrops counts guard messages dropped for a stale epoch; Nacked
	// counts transactions refused by a quarantined guard.
	StaleDrops, Nacked uint64

	// Cov records (state, event) coverage; its declaration set IS
	// paper Table 1, so unexpected transitions fail conformance.
	Cov *coherence.Coverage
}

// NewL1Cache builds and registers a Table 1 accelerator cache.
func NewL1Cache(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	xg coherence.NodeID, cfg Config) *L1Cache {
	c := &L1Cache{
		id: id, name: name, eng: eng, fab: fab, cfg: cfg, xg: xg,
		cache:      cacheset.New[aLine](cfg.L1Sets, cfg.L1Ways),
		wb:         make(map[mem.Addr]*mem.Block),
		waitingOps: make(coherence.LineQueues),
		Cov:        NewTable1Coverage(),
	}
	c.doCPU = c.handleCPU
	fab.Register(c)
	return c
}

// l1Table is the Table 1 cache's coverage vocabulary: states by AState,
// events the local three plus the interface's five messages to the cache.
var l1Table = coherence.NewTable(aStateNames[:], localEvents,
	coherence.ADataS, coherence.ADataE, coherence.ADataM, coherence.AWBAck, coherence.AInv)

// table1 is paper Table 1: for each state, the events whose cell is not
// "impossible".
var table1 = []struct {
	st  AState
	evs []int
}{
	{AM, []int{evLoad, evStore, evReplacement, l1Table.Event(coherence.AInv)}},
	{AE, []int{evLoad, evStore, evReplacement, l1Table.Event(coherence.AInv)}},
	{AS, []int{evLoad, evStore, evReplacement, l1Table.Event(coherence.AInv)}},
	{AI, []int{evLoad, evStore, l1Table.Event(coherence.AInv)}},
	{AB, []int{evLoad, evStore, evReplacement, l1Table.Event(coherence.AInv),
		l1Table.Event(coherence.ADataM), l1Table.Event(coherence.ADataE),
		l1Table.Event(coherence.ADataS), l1Table.Event(coherence.AWBAck)}},
}

// NewTable1Coverage declares exactly the transitions of paper Table 1.
func NewTable1Coverage() *coherence.Coverage {
	cov := coherence.NewCoverage("accel.L1", l1Table)
	for _, row := range table1 {
		cov.Declare(int(row.st), row.evs...)
	}
	return cov
}

// Table1Pairs returns the (state, event) pairs paper Table 1 defines
// (every cell that is not "impossible"), by name.
func Table1Pairs() [][2]string {
	var pairs [][2]string
	for _, row := range table1 {
		for _, ev := range row.evs {
			pairs = append(pairs, [2]string{row.st.String(), l1Table.Events()[ev]})
		}
	}
	return pairs
}

// ID implements coherence.Controller.
func (c *L1Cache) ID() coherence.NodeID { return c.id }

// Name implements coherence.Controller.
func (c *L1Cache) Name() string { return c.name }

// Recv implements coherence.Controller.
func (c *L1Cache) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ReqLoad, coherence.ReqStore:
		c.handleCPU(m)
	case coherence.ADataS, coherence.ADataE, coherence.ADataM:
		if m.Epoch != c.epoch {
			c.StaleDrops++
			return
		}
		c.handleData(m)
	case coherence.AWBAck:
		if m.Epoch != c.epoch {
			c.StaleDrops++
			return
		}
		c.handleWBAck(m)
	case coherence.AInv:
		if m.Epoch != c.epoch {
			c.StaleDrops++
			return
		}
		c.handleInv(m)
	case coherence.ANack:
		if m.Epoch != c.epoch {
			c.StaleDrops++
			return
		}
		c.handleNack(m)
	default:
		panic(fmt.Sprintf("%s: unexpected %v", c.name, m))
	}
}

// Reset reinitializes the cache under a new guard epoch (the recovery
// protocol's device-reset step): every line returns to Invalid and every
// in-flight transaction is forgotten. Waiting core operations are
// dropped without responses — the sequencer aborts them in the same
// reset. Coverage is cumulative and survives the reset.
func (c *L1Cache) Reset(epoch uint32) {
	c.epoch = epoch
	c.cache = cacheset.New[aLine](c.cfg.L1Sets, c.cfg.L1Ways)
	c.wb = make(map[mem.Addr]*mem.Block)
	c.waitingOps = make(coherence.LineQueues)
	c.stalledOps = nil
}

// handleNack closes a transaction a quarantined guard refused. No
// response reaches the waiting core operation: the device is about to be
// reset, and the sequencer abort drops the operation with it.
func (c *L1Cache) handleNack(m *coherence.Msg) {
	line := m.Addr.Line()
	c.Nacked++
	if _, ok := c.wb[line]; ok {
		c.retire(line)
		return
	}
	if e := c.cache.Peek(m.Addr); e != nil && e.V.state == AB {
		c.invalidate(e)
		c.settled(line)
	}
}

// invalidate drops the line and gives its block back.
func (c *L1Cache) invalidate(e *cacheset.Entry[aLine]) {
	c.fab.FreeBlock(e.V.data)
	c.cache.Invalidate(e.Addr)
}

// retire closes a finished (or refused) writeback.
func (c *L1Cache) retire(line mem.Addr) {
	c.fab.FreeBlock(c.wb[line])
	delete(c.wb, line)
	c.settled(line)
}

// --- accelerator-core side ---

func (c *L1Cache) handleCPU(m *coherence.Msg) {
	line := m.Addr.Line()
	if _, busy := c.wb[line]; busy {
		// Table 1: B stalls loads, stores, and replacements.
		c.Cov.Record(int(AB), opEv(m))
		c.waitingOps.Push(line, m)
		return
	}
	e := c.cache.Lookup(m.Addr)
	if e != nil && e.V.state == AB {
		c.Cov.Record(int(AB), opEv(m))
		c.waitingOps.Push(line, m)
		return
	}
	isStore := m.Type == coherence.ReqStore
	if e == nil {
		c.Cov.Record(int(AI), opEv(m))
		e = c.allocate(m)
		if e == nil {
			return
		}
		// I + Load -> issue GetS / B ;  I + Store -> issue GetM / B.
		// A VI-flavored cache issues only GetM (paper §2.1).
		ty := coherence.AGetS
		if isStore || c.cfg.Flavor == FlavorVI {
			ty = coherence.AGetM
		}
		e.V.state = AB
		e.V.op = m
		c.sendToXG(ty, line, nil, false)
		return
	}
	st := e.V.state
	c.Cov.Record(int(st), opEv(m))
	switch {
	case !isStore: // Load hit in M/E/S.
		c.respond(m, e.V.data[m.Addr.Offset()])
	case st == AM:
		e.V.data[m.Addr.Offset()] = m.Val
		c.respond(m, 0)
	case st == AE:
		// E + Store -> hit / M (silent upgrade).
		e.V.state = AM
		e.V.data[m.Addr.Offset()] = m.Val
		c.respond(m, 0)
	case st == AS:
		// S + Store -> issue GetM / B.
		e.V.state = AB
		e.V.op = m
		c.sendToXG(coherence.AGetM, line, nil, false)
	}
}

func (c *L1Cache) allocate(m *coherence.Msg) *cacheset.Entry[aLine] {
	var victim cacheset.Entry[aLine]
	e, evicted, ok := c.cache.Allocate(m.Addr, func(e *cacheset.Entry[aLine]) bool {
		return e.V.state.Stable()
	}, &victim)
	if !ok {
		c.stalledOps = append(c.stalledOps, m)
		return nil
	}
	if evicted {
		c.evict(victim.Addr, &victim.V)
	}
	e.V = aLine{state: AI}
	return e
}

// evict issues the replacement row of Table 1: PutM from M, PutE from E,
// PutS from S — Put data rides along (no multi-phase commit).
func (c *L1Cache) evict(addr mem.Addr, v *aLine) {
	c.Cov.Record(int(v.state), evReplacement)
	var ty coherence.MsgType
	var data *mem.Block
	switch v.state {
	case AM:
		ty, data = coherence.APutM, v.data
	case AE:
		ty, data = coherence.APutE, v.data
		if c.cfg.Flavor == FlavorMSI || c.cfg.Flavor == FlavorVI {
			ty = coherence.APutM // degraded designs send only dirty Puts
		}
	case AS:
		ty = coherence.APutS
	default:
		panic(fmt.Sprintf("%s: evicting %v", c.name, v.state))
	}
	c.wb[addr] = v.data // the buffer takes the victim's block over
	c.sendToXG(ty, addr, data, ty == coherence.APutM)
}

func (c *L1Cache) respond(op *coherence.Msg, val byte) {
	c.fab.SendAfter(c.cfg.HitLat, coherence.Reply(op, c.id, val), nil)
}

// --- Crossing Guard side ---

func (c *L1Cache) handleData(m *coherence.Msg) {
	e := c.cache.Peek(m.Addr)
	if e == nil || e.V.state != AB || e.V.op == nil {
		panic(fmt.Sprintf("%s: data %v with no pending get", c.name, m))
	}
	c.Cov.Record(int(AB), l1Table.Event(m.Type))
	st := AS
	switch m.Type {
	case coherence.ADataM:
		st = AM
	case coherence.ADataE:
		st = AE
		// Degraded designs treat DataE as DataM (paper §2.1).
		if c.cfg.Flavor == FlavorMSI || c.cfg.Flavor == FlavorVI {
			st = AM
		}
	}
	op := e.V.op
	e.V.state = st
	c.fab.FillBlock(&e.V.data, m.Data) // in place on an upgrade
	e.V.op = nil
	if op.Type == coherence.ReqStore {
		if st == AS {
			// DataS answered our GetM? The interface forbids it; only a
			// buggy guard could do this.
			panic(fmt.Sprintf("%s: DataS for a store at %v", c.name, m.Addr))
		}
		if st == AE {
			e.V.state = AM
		}
		e.V.data[op.Addr.Offset()] = op.Val
		c.respond(op, 0)
	} else {
		c.respond(op, e.V.data[op.Addr.Offset()])
	}
	c.settled(m.Addr.Line())
}

func (c *L1Cache) handleWBAck(m *coherence.Msg) {
	line := m.Addr.Line()
	if _, ok := c.wb[line]; !ok {
		panic(fmt.Sprintf("%s: WBAck with no writeback: %v", c.name, m))
	}
	c.Cov.Record(int(AB), l1Table.Event(m.Type))
	c.retire(line)
}

// handleInv implements the Invalidate column of Table 1.
func (c *L1Cache) handleInv(m *coherence.Msg) {
	line := m.Addr.Line()
	if _, ok := c.wb[line]; ok {
		// B (put outstanding): send InvAck, take no further action;
		// Crossing Guard resolves the Put/Inv race.
		c.Cov.Record(int(AB), l1Table.Event(m.Type))
		c.sendToXG(coherence.AInvAck, line, nil, false)
		return
	}
	e := c.cache.Peek(m.Addr)
	if e == nil {
		c.Cov.Record(int(AI), l1Table.Event(m.Type))
		c.sendToXG(coherence.AInvAck, line, nil, false)
		return
	}
	c.Cov.Record(int(e.V.state), l1Table.Event(m.Type))
	switch e.V.state {
	case AM:
		c.sendToXG(coherence.ADirtyWB, line, e.V.data, true)
		c.invalidate(e)
		c.settled(line)
	case AE:
		c.sendToXG(coherence.ACleanWB, line, e.V.data, false)
		c.invalidate(e)
		c.settled(line)
	case AS:
		c.sendToXG(coherence.AInvAck, line, nil, false)
		c.invalidate(e)
		c.settled(line)
	case AB:
		c.sendToXG(coherence.AInvAck, line, nil, false)
	}
}

// sendToXG sends the guard one interface message, data copied into it.
func (c *L1Cache) sendToXG(ty coherence.MsgType, line mem.Addr, data *mem.Block, dirty bool) {
	c.fab.Send(c.fab.Msg(coherence.Msg{Type: ty, Addr: line, Src: c.id, Dst: c.xg, Data: data, Dirty: dirty,
		Epoch: c.epoch}))
}

func (c *L1Cache) settled(line mem.Addr) {
	if next := c.waitingOps.Pop(line); next != nil {
		c.fab.CallAfter(0, c.doCPU, next)
	}
	for _, op := range c.stalledOps {
		c.fab.CallAfter(0, c.doCPU, op)
	}
	c.stalledOps = c.stalledOps[:0]
}

// Outstanding reports open transactions.
func (c *L1Cache) Outstanding() int {
	n := len(c.wb) + len(c.stalledOps) + c.waitingOps.Len()
	c.cache.Visit(func(e *cacheset.Entry[aLine]) {
		if e.V.state == AB {
			n++
		}
	})
	return n
}

// AuditLine reports the stable view for invariant checks.
func (c *L1Cache) AuditLine(addr mem.Addr) (present bool, st AState, data *mem.Block) {
	e := c.cache.Peek(addr)
	if e == nil || e.V.state == AB || e.V.state == AI {
		return false, AI, nil
	}
	return true, e.V.state, e.V.data
}

// VisitStable reports every stable valid line for invariant checks.
func (c *L1Cache) VisitStable(fn func(addr mem.Addr, st AState, data *mem.Block)) {
	c.cache.Visit(func(e *cacheset.Entry[aLine]) {
		if e.V.state.Stable() && e.V.state != AI {
			fn(e.Addr, e.V.state, e.V.data)
		}
	})
}
