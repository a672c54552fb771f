package hammer

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// cLine is the protocol payload of one private-cache line. Its blocks —
// the line's data and the responses an open Get has collected — are the
// cache's own, taken from the machine's block list when filled and given
// back when the line is invalidated or the Get completes.
type cLine struct {
	state CState
	data  *mem.Block
	dirty bool // modified relative to memory
	// Open-transaction bookkeeping (response counting).
	expected  int
	got       int
	dataCount int
	shared    bool
	cacheData *mem.Block
	cacheDirt bool
	memData   *mem.Block
	noExcl    bool // GetS_only: never take E
	op        *coherence.Msg
}

// wbLine is an evicted line in the writeback buffer: its state, and the
// data it took with it.
type wbLine struct {
	state CState
	data  *mem.Block
	dirty bool
}

// Cache is a private combined L1/L2 in the Hammer-like protocol.
type Cache struct {
	id   coherence.NodeID
	name string
	eng  *sim.Engine
	fab  *network.Fabric
	cfg  Config
	dir  coherence.NodeID
	sink coherence.ErrorSink
	// responses is how many responses every request collects:
	// one per peer cache plus the speculative memory data.
	responses int

	cache *cacheset.Cache[cLine]
	wb    map[mem.Addr]*wbLine
	// freeWB recycles the writeback buffer's records.
	freeWB coherence.RecPool[wbLine]
	// waitingOps and stalledOps hold core operations only: sequencer
	// requests, which belong to this cache until it replies.
	waitingOps coherence.LineQueues
	stalledOps []*coherence.Msg
	// doCPU is handleCPU bound once (CallAfter's handler).
	doCPU func(*coherence.Msg)

	// Cov records (state, event) coverage.
	Cov *coherence.Coverage
	// NacksSunk counts unexpected Nacks tolerated under TxnMods.
	NacksSunk uint64
}

// NewCache builds and registers a private cache. responses must be
// (number of peer caches) + 1.
func NewCache(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	dir coherence.NodeID, responses int, cfg Config, sink coherence.ErrorSink) *Cache {
	c := &Cache{
		id: id, name: name, eng: eng, fab: fab, cfg: cfg, dir: dir, sink: sink,
		responses:  responses,
		cache:      cacheset.New[cLine](cfg.Sets, cfg.Ways),
		wb:         make(map[mem.Addr]*wbLine),
		waitingOps: make(coherence.LineQueues),
		Cov:        NewCacheCoverage(),
	}
	c.doCPU = c.handleCPU
	fab.Register(c)
	return c
}

// cacheTable is the cache's coverage vocabulary: states by CState, events
// the local three plus every message Recv dispatches on.
var cacheTable = coherence.NewTable(cStateNames[:], localEvents,
	coherence.HFwdGetS, coherence.HFwdGetSOnly, coherence.HFwdGetM,
	coherence.HData, coherence.HAck, coherence.HMemData, coherence.HWBAck, coherence.HNack)

// NewCacheCoverage declares reachable (state, event) pairs.
func NewCacheCoverage() *coherence.Coverage {
	cov := coherence.NewCoverage("hammer.cache", cacheTable)
	declare := func(states []CState, msgs ...coherence.MsgType) {
		for _, s := range states {
			for _, m := range msgs {
				cov.Declare(int(s), cacheTable.Event(m))
			}
		}
	}
	for s := CI; s <= CM; s++ {
		cov.Declare(int(s), evLoad, evStore)
	}
	for s := CS; s <= CM; s++ {
		cov.Declare(int(s), evReplacement)
	}
	declare([]CState{CI, CS, CE, CO, CM, CIS, CIM, CSM, COM, CMI, COI, CEI, CII},
		coherence.HFwdGetS, coherence.HFwdGetSOnly, coherence.HFwdGetM)
	declare([]CState{CIS, CIM, CSM, COM}, coherence.HData, coherence.HAck, coherence.HMemData)
	declare([]CState{CMI, COI, CEI}, coherence.HWBAck)
	declare([]CState{CII}, coherence.HNack, coherence.HWBAck)
	return cov
}

// ID implements coherence.Controller.
func (c *Cache) ID() coherence.NodeID { return c.id }

// Name implements coherence.Controller.
func (c *Cache) Name() string { return c.name }

func (c *Cache) protocolError(state string, m *coherence.Msg) {
	if c.cfg.TxnMods {
		c.sink.ReportError(coherence.ProtocolError{
			Where: c.name, Code: "HOST.Cache.Unexpected", Addr: m.Addr,
			Detail: fmt.Sprintf("state %s event %v", state, m.Type),
		})
		return
	}
	panic(fmt.Sprintf("%s: unexpected %v in state %s", c.name, m, state))
}

// Recv implements coherence.Controller.
func (c *Cache) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ReqLoad, coherence.ReqStore:
		c.handleCPU(m)
	case coherence.HFwdGetS, coherence.HFwdGetSOnly, coherence.HFwdGetM:
		c.handleForward(m)
	case coherence.HData, coherence.HAck, coherence.HMemData:
		c.handleResponse(m)
	case coherence.HWBAck:
		c.handleWBAck(m)
	case coherence.HNack:
		c.handleNack(m)
	default:
		c.protocolError("?", m)
	}
}

// send takes a message holding t from the pool and hands it to the fabric.
func (c *Cache) send(t coherence.Msg) { c.fab.Send(c.fab.Msg(t)) }

// --- CPU side ---

func (c *Cache) handleCPU(m *coherence.Msg) {
	line := m.Addr.Line()
	if _, busy := c.wb[line]; busy {
		c.waitingOps.Push(line, m)
		return
	}
	e := c.cache.Lookup(m.Addr)
	if e != nil && !e.V.state.Stable() {
		c.waitingOps.Push(line, m)
		return
	}
	isStore := m.Type == coherence.ReqStore
	ev := evLoad
	if isStore {
		ev = evStore
	}
	if e == nil {
		c.Cov.Record(int(CI), ev)
		e = c.allocate(m)
		if e == nil {
			return
		}
		if isStore {
			c.issueGet(e, m, coherence.HGetM, CIM)
		} else {
			c.issueGet(e, m, coherence.HGetS, CIS)
		}
		return
	}
	st := e.V.state
	c.Cov.Record(int(st), ev)
	switch {
	case !isStore: // load hit in S/E/O/M
		c.respond(m, e.V.data[m.Addr.Offset()])
	case st == CM:
		e.V.data[m.Addr.Offset()] = m.Val
		c.respond(m, 0)
	case st == CE:
		e.V.state = CM
		e.V.dirty = true
		e.V.data[m.Addr.Offset()] = m.Val
		c.respond(m, 0)
	case st == CS:
		c.issueGet(e, m, coherence.HGetM, CSM)
	case st == CO:
		c.issueGet(e, m, coherence.HGetM, COM)
	}
}

func (c *Cache) issueGet(e *cacheset.Entry[cLine], op *coherence.Msg, ty coherence.MsgType, next CState) {
	e.V.state = next
	e.V.expected = c.responses
	e.V.got = 0
	e.V.dataCount = 0
	e.V.shared = false
	e.V.noExcl = ty == coherence.HGetSOnly
	e.V.op = op
	c.send(coherence.Msg{Type: ty, Addr: e.Addr, Src: c.id, Dst: c.dir})
}

func (c *Cache) allocate(m *coherence.Msg) *cacheset.Entry[cLine] {
	var victim cacheset.Entry[cLine]
	e, evicted, ok := c.cache.Allocate(m.Addr, func(e *cacheset.Entry[cLine]) bool {
		return e.V.state.Stable()
	}, &victim)
	if !ok {
		c.stalledOps = append(c.stalledOps, m)
		return nil
	}
	if evicted {
		c.evict(victim.Addr, &victim.V)
	}
	e.V = cLine{state: CI}
	return e
}

func (c *Cache) evict(addr mem.Addr, v *cLine) {
	c.Cov.Record(int(v.state), evReplacement)
	switch v.state {
	case CS:
		// Hammer allows silent eviction of shared blocks.
		c.fab.FreeBlock(v.data)
	case CM, CO, CE:
		next := CMI
		switch v.state {
		case CO:
			next = COI
		case CE:
			next = CEI
		}
		wl := c.freeWB.Get()
		wl.state, wl.data, wl.dirty = next, v.data, v.dirty
		c.wb[addr] = wl
		c.send(coherence.Msg{Type: coherence.HPut, Addr: addr, Src: c.id, Dst: c.dir})
	default:
		panic(fmt.Sprintf("%s: evicting line in state %v", c.name, v.state))
	}
}

// invalidate drops the line and gives its block back.
func (c *Cache) invalidate(e *cacheset.Entry[cLine]) {
	c.fab.FreeBlock(e.V.data)
	c.cache.Invalidate(e.Addr)
}

// retire closes a finished writeback.
func (c *Cache) retire(line mem.Addr, wl *wbLine) {
	c.fab.FreeBlock(wl.data)
	delete(c.wb, line)
	c.freeWB.Put(wl)
	c.settled(line)
}

func (c *Cache) respond(op *coherence.Msg, val byte) {
	c.fab.SendAfter(c.cfg.HitLat, coherence.Reply(op, c.id, val), nil)
}

// --- forwards (broadcast requests from the directory) ---

func (c *Cache) handleForward(m *coherence.Msg) {
	line := m.Addr.Line()
	var st CState
	var data *mem.Block
	var dirty bool
	var e *cacheset.Entry[cLine]
	wl, inWB := c.wb[line]
	if inWB {
		st, data, dirty = wl.state, wl.data, wl.dirty
	} else if e = c.cache.Peek(m.Addr); e != nil {
		st, data, dirty = e.V.state, e.V.data, e.V.dirty
	} else {
		st = CI
	}
	c.Cov.Record(int(st), cacheTable.Event(m.Type))

	getM := m.Type == coherence.HFwdGetM
	if st.owned() {
		c.send(coherence.Msg{Type: coherence.HData, Addr: line, Src: c.id, Dst: m.Requestor,
			Data: data, Dirty: dirty, Shared: true})
		switch {
		case getM:
			// Ownership moves to the requestor.
			switch st {
			case CM, CO, CE:
				c.invalidate(e)
				c.settled(line)
			case COM:
				e.V.state = CIM // lost our copy; our own GetM is still queued
			case CMI, COI, CEI:
				wl.state = CII
			}
		default: // FwdGetS / FwdGetSOnly: owner downgrades to O, keeps data
			switch st {
			case CM, CE:
				e.V.state = CO
				// CO, COM, CMI, COI, CEI: unchanged; still the owner.
			}
		}
		return
	}
	// Non-owners ack, asserting Shared when they hold an S copy.
	hasS := st == CS || st == CSM
	c.send(coherence.Msg{Type: coherence.HAck, Addr: line, Src: c.id, Dst: m.Requestor,
		Shared: hasS && !getM})
	if getM {
		switch st {
		case CS:
			c.invalidate(e)
			c.settled(line)
		case CSM:
			e.V.state = CIM
		}
	}
}

// --- responses to our own requests ---

func (c *Cache) handleResponse(m *coherence.Msg) {
	e := c.cache.Peek(m.Addr)
	if e == nil || e.V.op == nil {
		c.protocolError("I", m)
		return
	}
	st := e.V.state
	switch st {
	case CIS, CIM, CSM, COM:
	default:
		c.protocolError(st.String(), m)
		return
	}
	c.Cov.Record(int(st), cacheTable.Event(m.Type))
	switch m.Type {
	case coherence.HData:
		e.V.dataCount++
		if e.V.dataCount > 1 && !c.cfg.TxnMods {
			panic(fmt.Sprintf("%s: multiple data responses for %v", c.name, m.Addr))
		}
		if e.V.dataCount > 1 {
			c.sink.ReportError(coherence.ProtocolError{Where: c.name,
				Code: "HOST.MultiData", Addr: m.Addr, Detail: "duplicate data response tolerated"})
		}
		if e.V.cacheData == nil && m.Data != nil {
			e.V.cacheData = c.fab.CopyBlock(m.Data)
			e.V.cacheDirt = m.Dirty
		}
		e.V.shared = true // an owner elsewhere means the block is shared
	case coherence.HAck:
		if m.Shared {
			e.V.shared = true
		}
	case coherence.HMemData:
		// A second memory response (possible only under fault injection)
		// replaces the first.
		c.fab.FreeBlock(e.V.memData)
		e.V.memData = c.fab.CopyBlock(m.Data)
	}
	e.V.got++
	if e.V.got < e.V.expected {
		return
	}
	c.completeGet(e)
}

func (c *Cache) completeGet(e *cacheset.Entry[cLine]) {
	op := e.V.op
	st := e.V.state
	// The line adopts the block that answers the Get — no further copy —
	// and the other collected responses go back to the block list.
	data := e.V.data
	var dirty bool
	switch {
	case st == COM:
		// We are the owner: our copy is authoritative.
		dirty = e.V.dirty
	case e.V.cacheData != nil:
		data, dirty = e.V.cacheData, e.V.cacheDirt
		e.V.cacheData = nil
	case e.V.memData != nil:
		data, dirty = e.V.memData, false
		e.V.memData = nil
	default:
		// Response-counting tolerance: every response was an ack and
		// even memory data is missing (possible only under fuzzing with
		// TxnMods); complete with a zero block.
		if !c.cfg.TxnMods {
			panic(fmt.Sprintf("%s: request for %v completed without data", c.name, e.Addr))
		}
		c.sink.ReportError(coherence.ProtocolError{Where: c.name,
			Code: "HOST.NoData", Addr: e.Addr, Detail: "request completed with zero block"})
		data, dirty = c.fab.CopyBlock(nil), false
	}
	if data != e.V.data {
		c.fab.FreeBlock(e.V.data)
		e.V.data = data
	}
	c.fab.FreeBlock(e.V.cacheData)
	c.fab.FreeBlock(e.V.memData)
	e.V.cacheData, e.V.memData = nil, nil
	tookShared := false
	if st == CIS {
		if e.V.shared || e.V.noExcl {
			e.V.state = CS
			tookShared = true
		} else {
			e.V.state = CE
		}
		e.V.dirty = dirty
		if tookShared {
			e.V.dirty = false // the owner retains responsibility
		}
		c.respond(op, e.V.data[op.Addr.Offset()])
	} else {
		e.V.state = CM
		e.V.dirty = true
		e.V.data[op.Addr.Offset()] = op.Val
		c.respond(op, 0)
	}
	e.V.op = nil
	c.send(coherence.Msg{Type: coherence.HUnblock, Addr: e.Addr, Src: c.id, Dst: c.dir,
		Shared: tookShared})
	c.settled(e.Addr)
}

// --- writeback acks and nacks ---

func (c *Cache) handleWBAck(m *coherence.Msg) {
	line := m.Addr.Line()
	wl, ok := c.wb[line]
	if !ok {
		c.protocolError("I", m)
		return
	}
	c.Cov.Record(int(wl.state), cacheTable.Event(m.Type))
	switch wl.state {
	case CMI, COI, CEI:
		c.send(coherence.Msg{Type: coherence.HWBData, Addr: line, Src: c.id, Dst: c.dir,
			Data: wl.data, Dirty: wl.dirty})
		c.retire(line, wl)
	case CII:
		// We no longer own the block; the WBAck is for a Put the
		// directory accepted before ownership moved — complete with a
		// clean (ignored) writeback so the directory can close.
		c.send(coherence.Msg{Type: coherence.HWBData, Addr: line, Src: c.id, Dst: c.dir,
			Data: wl.data, Dirty: false})
		c.retire(line, wl)
	default:
		c.protocolError(wl.state.String(), m)
	}
}

func (c *Cache) handleNack(m *coherence.Msg) {
	line := m.Addr.Line()
	if wl, ok := c.wb[line]; ok {
		c.Cov.Record(int(wl.state), cacheTable.Event(m.Type))
		if wl.state == CII {
			// Normal race resolution: ownership moved while our Put was
			// queued; the data already went to the new owner.
			c.retire(line, wl)
			return
		}
		// A Nack in MI/OI/EI means the directory disagrees about
		// ownership without us having seen a FwdGetM: impossible in a
		// correct system, possible after accelerator-corrupted state.
		if !c.cfg.TxnMods {
			panic(fmt.Sprintf("%s: Nack in %v for %v", c.name, wl.state, line))
		}
		c.NacksSunk++
		c.sink.ReportError(coherence.ProtocolError{Where: c.name,
			Code: "HOST.UnexpectedNack", Addr: line,
			Detail: fmt.Sprintf("Nack sunk in state %v; dropping writeback", wl.state)})
		c.retire(line, wl)
		return
	}
	// Paper §3.2.1: host caches must sink unexpected Nacks and raise an
	// error instead of crashing.
	st := CI
	if e := c.cache.Peek(m.Addr); e != nil {
		st = e.V.state
	}
	c.Cov.Record(int(st), cacheTable.Event(m.Type))
	if !c.cfg.TxnMods {
		panic(fmt.Sprintf("%s: unexpected Nack in state %s for %v", c.name, st, line))
	}
	c.NacksSunk++
	c.sink.ReportError(coherence.ProtocolError{Where: c.name,
		Code: "HOST.UnexpectedNack", Addr: line, Detail: "Nack sunk in state " + st.String()})
}

// --- wakeups, audit ---

func (c *Cache) settled(line mem.Addr) {
	if next := c.waitingOps.Pop(line); next != nil {
		c.fab.CallAfter(0, c.doCPU, next)
	}
	for _, op := range c.stalledOps {
		c.fab.CallAfter(0, c.doCPU, op)
	}
	c.stalledOps = c.stalledOps[:0]
}

// Outstanding reports open transactions.
func (c *Cache) Outstanding() int {
	n := len(c.wb) + len(c.stalledOps) + c.waitingOps.Len()
	c.cache.Visit(func(e *cacheset.Entry[cLine]) {
		if !e.V.state.Stable() {
			n++
		}
	})
	return n
}

// AuditLine reports the stable view for invariant checks.
func (c *Cache) AuditLine(addr mem.Addr) (present bool, st CState, data *mem.Block, dirty bool) {
	e := c.cache.Peek(addr)
	if e == nil || !e.V.state.Stable() || e.V.state == CI {
		return false, CI, nil, false
	}
	return true, e.V.state, e.V.data, e.V.dirty
}

// VisitStable reports every stable valid line for invariant checks.
func (c *Cache) VisitStable(fn func(addr mem.Addr, st CState, data *mem.Block, dirty bool)) {
	c.cache.Visit(func(e *cacheset.Entry[cLine]) {
		if e.V.state.Stable() && e.V.state != CI {
			fn(e.Addr, e.V.state, e.V.data, e.V.dirty)
		}
	})
}

// WBPending reports buffered writebacks (zero at quiesce).
func (c *Cache) WBPending() int { return len(c.wb) }
