package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
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
	// The chassis's write-back buffer holds the put-origin B entries.
	chassis.L1[aLine]
	flavor Flavor
	xg     coherence.NodeID // the Crossing Guard endpoint

	// epoch is the guard epoch this cache operates under (0 until the
	// first device reset). Guard messages from another epoch are
	// pre-reset stragglers and are dropped, never dispatched — a stale
	// grant must not be mistaken for an answer to a fresh request.
	epoch uint32
	// StaleDrops counts guard messages dropped for a stale epoch; Nacked
	// counts transactions refused by a quarantined guard.
	StaleDrops, Nacked uint64
}

// NewL1Cache builds and registers a Table 1 accelerator cache. Its
// coverage declares exactly paper Table 1, so an unexpected transition
// fails conformance.
func NewL1Cache(id coherence.NodeID, name string, fab *network.Fabric, xg coherence.NodeID, cfg Config) *L1Cache {
	c := &L1Cache{flavor: cfg.Flavor, xg: xg}
	c.Init(c, id, name, fab, cfg.L1Sets, cfg.L1Ways, cfg.HitLat, NewTable1Coverage(),
		func(v *aLine) bool { return v.state == AB }, c.evict, c.handleCPU)
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

// Recv implements coherence.Controller.
func (c *L1Cache) Recv(m *coherence.Msg) {
	if m.Type == coherence.ReqLoad || m.Type == coherence.ReqStore {
		c.handleCPU(m)
		return
	}
	if m.Epoch != c.epoch {
		c.StaleDrops++
		return
	}
	switch m.Type {
	case coherence.ADataS, coherence.ADataE, coherence.ADataM:
		c.handleData(m)
	case coherence.AWBAck:
		c.handleWBAck(m)
	case coherence.AInv:
		c.handleInv(m)
	case coherence.ANack:
		c.handleNack(m)
	default:
		panic(fmt.Sprintf("%s: unexpected %v", c.Name(), m))
	}
}

// Reset reinitializes the cache under a new guard epoch (the recovery
// protocol's device-reset step): every line returns to Invalid and every
// in-flight transaction is forgotten. Waiting core operations are
// dropped without responses — the sequencer aborts them in the same
// reset. Coverage is cumulative and survives the reset.
func (c *L1Cache) Reset(epoch uint32) {
	c.epoch = epoch
	c.L1.Reset()
}

// handleNack closes a transaction a quarantined guard refused. No
// response reaches the waiting core operation: the device is about to be
// reset, and the sequencer abort drops the operation with it.
func (c *L1Cache) handleNack(m *coherence.Msg) {
	line := m.Addr.Line()
	c.Nacked++
	if wl := c.Buffered(line); wl != nil {
		c.Retire(line, wl.data)
		return
	}
	if e := c.Lines.Peek(m.Addr); e != nil && e.V.state == AB {
		c.Drop(e, e.V.data)
		c.Settled(line)
	}
}

// --- accelerator-core side ---

func (c *L1Cache) handleCPU(m *coherence.Msg) {
	line := m.Addr.Line()
	e, ok := c.Admit(line, m)
	if !ok {
		// Table 1: B stalls loads, stores, and replacements.
		c.Cov.Record(int(AB), opEv(m))
		return
	}
	isStore := m.Type == coherence.ReqStore
	if e == nil {
		c.Cov.Record(int(AI), opEv(m))
		if e = c.Allocate(line, m); e == nil {
			return
		}
		// I + Load -> issue GetS / B ;  I + Store -> issue GetM / B.
		// A VI-flavored cache issues only GetM (paper §2.1).
		ty := coherence.AGetS
		if isStore || c.flavor == FlavorVI {
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
		c.Respond(m, e.V.data[m.Addr.Offset()])
	case st == AM:
		e.V.data[m.Addr.Offset()] = m.Val
		c.Respond(m, 0)
	case st == AE:
		// E + Store -> hit / M (silent upgrade).
		e.V.state = AM
		e.V.data[m.Addr.Offset()] = m.Val
		c.Respond(m, 0)
	case st == AS:
		// S + Store -> issue GetM / B.
		e.V.state = AB
		e.V.op = m
		c.sendToXG(coherence.AGetM, line, nil, false)
	}
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
		if c.flavor == FlavorMSI || c.flavor == FlavorVI {
			ty = coherence.APutM // degraded designs send only dirty Puts
		}
	case AS:
		ty = coherence.APutS
	default:
		panic(fmt.Sprintf("%s: evicting %v", c.Name(), v.state))
	}
	c.Buffer(addr, v) // the buffer takes the victim's block over
	c.sendToXG(ty, addr, data, ty == coherence.APutM)
}

// --- Crossing Guard side ---

func (c *L1Cache) handleData(m *coherence.Msg) {
	e := c.Lines.Peek(m.Addr)
	if e == nil || e.V.state != AB || e.V.op == nil {
		panic(fmt.Sprintf("%s: data %v with no pending get", c.Name(), m))
	}
	c.Cov.Record(int(AB), l1Table.Event(m.Type))
	st := AS
	switch m.Type {
	case coherence.ADataM:
		st = AM
	case coherence.ADataE:
		st = AE
		// Degraded designs treat DataE as DataM (paper §2.1).
		if c.flavor == FlavorMSI || c.flavor == FlavorVI {
			st = AM
		}
	}
	op := e.V.op
	e.V.state = st
	c.Fab.FillBlock(&e.V.data, m.Data) // in place on an upgrade
	e.V.op = nil
	if op.Type == coherence.ReqStore {
		if st == AS {
			// DataS answered our GetM? The interface forbids it; only a
			// buggy guard could do this.
			panic(fmt.Sprintf("%s: DataS for a store at %v", c.Name(), m.Addr))
		}
		if st == AE {
			e.V.state = AM
		}
		e.V.data[op.Addr.Offset()] = op.Val
		c.Respond(op, 0)
	} else {
		c.Respond(op, e.V.data[op.Addr.Offset()])
	}
	c.Settled(m.Addr.Line())
}

func (c *L1Cache) handleWBAck(m *coherence.Msg) {
	line := m.Addr.Line()
	wl := c.Buffered(line)
	if wl == nil {
		panic(fmt.Sprintf("%s: WBAck with no writeback: %v", c.Name(), m))
	}
	c.Cov.Record(int(AB), l1Table.Event(m.Type))
	c.Retire(line, wl.data)
}

// handleInv implements the Invalidate column of Table 1.
func (c *L1Cache) handleInv(m *coherence.Msg) {
	line := m.Addr.Line()
	if c.Buffered(line) != nil {
		// B (put outstanding): send InvAck, take no further action;
		// Crossing Guard resolves the Put/Inv race.
		c.Cov.Record(int(AB), l1Table.Event(m.Type))
		c.sendToXG(coherence.AInvAck, line, nil, false)
		return
	}
	e := c.Lines.Peek(m.Addr)
	if e == nil {
		c.Cov.Record(int(AI), l1Table.Event(m.Type))
		c.sendToXG(coherence.AInvAck, line, nil, false)
		return
	}
	c.Cov.Record(int(e.V.state), l1Table.Event(m.Type))
	switch e.V.state {
	case AM:
		c.sendToXG(coherence.ADirtyWB, line, e.V.data, true)
		c.Drop(e, e.V.data)
		c.Settled(line)
	case AE:
		c.sendToXG(coherence.ACleanWB, line, e.V.data, false)
		c.Drop(e, e.V.data)
		c.Settled(line)
	case AS:
		c.sendToXG(coherence.AInvAck, line, nil, false)
		c.Drop(e, e.V.data)
		c.Settled(line)
	case AB:
		c.sendToXG(coherence.AInvAck, line, nil, false)
	}
}

// sendToXG sends the guard one interface message, data copied into it.
func (c *L1Cache) sendToXG(ty coherence.MsgType, line mem.Addr, data *mem.Block, dirty bool) {
	c.Fab.Send(c.Fab.Msg(coherence.Msg{Type: ty, Addr: line, Src: c.ID(), Dst: c.xg, Data: data, Dirty: dirty,
		Epoch: c.epoch}))
}

// Held reports every stable valid line for invariant checks.
func (c *L1Cache) Held(fn chassis.HeldFunc) {
	c.Lines.Visit(func(e *cacheset.Entry[aLine]) {
		if e.V.state.Stable() && e.V.state != AI {
			fn(e.Addr, e.V.state.Level(), e.V.data, e.V.state == AM)
		}
	})
}
