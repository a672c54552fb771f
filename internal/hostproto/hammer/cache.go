package hammer

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
)

// cLine is the protocol payload of one private-cache line. data is the
// cache's own block, taken from the machine's block list when filled and
// given back when the line is invalidated; txn is the open Get's record,
// nil in a stable state.
type cLine struct {
	state CState
	data  *mem.Block
	dirty bool // modified relative to memory
	txn   *getTxn
}

// getTxn counts an open Get's responses. Its blocks, the responses it has
// collected, are the cache's own until the Get completes.
type getTxn struct {
	expected  int
	got       int
	dataCount int
	cacheData *mem.Block
	memData   *mem.Block
	op        *coherence.Msg
	shared    bool
	cacheDirt bool
	noExcl    bool // GetS_only: never take E
}

// Cache is a private combined L1/L2 in the Hammer-like protocol.
type Cache struct {
	// The chassis's write-back buffer holds evicted lines in MI/OI/EI/II,
	// with the data they took along.
	chassis.L1[cLine, getTxn]
	txnMods bool
	dir     coherence.NodeID
	sink    coherence.ErrorSink
	// responses is how many responses every request collects:
	// one per peer cache plus the speculative memory data.
	responses int

	// NacksSunk counts unexpected Nacks tolerated under TxnMods.
	NacksSunk uint64
}

// NewCache builds and registers a private cache. responses must be
// (number of peer caches) + 1.
func NewCache(id coherence.NodeID, name string, fab *network.Fabric,
	dir coherence.NodeID, responses int, cfg Config, sink coherence.ErrorSink) *Cache {
	c := &Cache{txnMods: cfg.TxnMods, dir: dir, sink: sink, responses: responses}
	c.Init(c, id, name, fab, cfg.Sets, cfg.Ways, cfg.HitLat, NewCacheCoverage(),
		func(v *cLine) bool { return !v.state.Stable() }, c.evict, c.handleCPU)
	return c
}

// Restart returns the cache to its just-built state for the machine's next
// run, keeping its storage. The machine's Reset calls it.
func (c *Cache) Restart() {
	c.Reset()
	c.Cov.Reset()
	c.NacksSunk = 0
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

func (c *Cache) protocolError(state string, m *coherence.Msg) {
	if c.txnMods {
		c.sink.ReportError(coherence.ProtocolError{
			Where: c.Name(), Code: "HOST.Cache.Unexpected", Addr: m.Addr,
			Detail: fmt.Sprintf("state %s event %v", state, m.Type),
		})
		return
	}
	panic(fmt.Sprintf("%s: unexpected %v in state %s", c.Name(), m, state))
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
func (c *Cache) send(t coherence.Msg) { c.Fab.Send(c.Fab.Msg(t)) }

// --- CPU side ---

func (c *Cache) handleCPU(m *coherence.Msg) {
	line := m.Addr.Line()
	e, ok := c.Admit(line, m)
	if !ok {
		return
	}
	isStore := m.Type == coherence.ReqStore
	ev := evLoad
	if isStore {
		ev = evStore
	}
	if e == nil {
		c.Cov.Record(int(CI), ev)
		if e = c.Allocate(line, m); e == nil {
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
		c.Respond(m, e.V.data[m.Addr.Offset()])
	case st == CM:
		e.V.data[m.Addr.Offset()] = m.Val
		c.Respond(m, 0)
	case st == CE:
		e.V.state = CM
		e.V.dirty = true
		e.V.data[m.Addr.Offset()] = m.Val
		c.Respond(m, 0)
	case st == CS:
		c.issueGet(e, m, coherence.HGetM, CSM)
	case st == CO:
		c.issueGet(e, m, coherence.HGetM, COM)
	}
}

func (c *Cache) issueGet(e *cacheset.Entry[cLine], op *coherence.Msg, ty coherence.MsgType, next CState) {
	e.V.state, e.V.txn = next, c.Txns.Get()
	*e.V.txn = getTxn{expected: c.responses, noExcl: ty == coherence.HGetSOnly, op: op}
	c.send(coherence.Msg{Type: ty, Addr: e.Addr, Src: c.ID(), Dst: c.dir})
}

func (c *Cache) evict(addr mem.Addr, v *cLine) {
	c.Cov.Record(int(v.state), evReplacement)
	switch v.state {
	case CS:
		// Hammer allows silent eviction of shared blocks.
		c.Fab.FreeBlock(v.data)
	case CM, CO, CE:
		switch v.state {
		case CM:
			v.state = CMI
		case CO:
			v.state = COI
		case CE:
			v.state = CEI
		}
		c.Buffer(addr, v)
		c.send(coherence.Msg{Type: coherence.HPut, Addr: addr, Src: c.ID(), Dst: c.dir})
	default:
		panic(fmt.Sprintf("%s: evicting line in state %v", c.Name(), v.state))
	}
}

// --- forwards (broadcast requests from the directory) ---

func (c *Cache) handleForward(m *coherence.Msg) {
	line := m.Addr.Line()
	var st CState
	var data *mem.Block
	var dirty bool
	var e *cacheset.Entry[cLine]
	wl := c.Buffered(line)
	if wl != nil {
		st, data, dirty = wl.state, wl.data, wl.dirty
	} else if e = c.Lines.Peek(m.Addr); e != nil {
		st, data, dirty = e.V.state, e.V.data, e.V.dirty
	} else {
		st = CI
	}
	c.Cov.Record(int(st), cacheTable.Event(m.Type))

	getM := m.Type == coherence.HFwdGetM
	if st.owned() {
		c.send(coherence.Msg{Type: coherence.HData, Addr: line, Src: c.ID(), Dst: m.Requestor,
			Data: data, Dirty: dirty, Shared: true})
		switch {
		case getM:
			// Ownership moves to the requestor.
			switch st {
			case CM, CO, CE:
				c.Drop(e, e.V.data)
				c.Settled(line)
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
	c.send(coherence.Msg{Type: coherence.HAck, Addr: line, Src: c.ID(), Dst: m.Requestor,
		Shared: hasS && !getM})
	if getM {
		switch st {
		case CS:
			c.Drop(e, e.V.data)
			c.Settled(line)
		case CSM:
			e.V.state = CIM
		}
	}
}

// --- responses to our own requests ---

func (c *Cache) handleResponse(m *coherence.Msg) {
	e := c.Lines.Peek(m.Addr)
	if e == nil || e.V.txn == nil {
		c.protocolError("I", m)
		return
	}
	t, st := e.V.txn, e.V.state
	switch st {
	case CIS, CIM, CSM, COM:
	default:
		c.protocolError(st.String(), m)
		return
	}
	c.Cov.Record(int(st), cacheTable.Event(m.Type))
	switch m.Type {
	case coherence.HData:
		t.dataCount++
		if t.dataCount > 1 && !c.txnMods {
			panic(fmt.Sprintf("%s: multiple data responses for %v", c.Name(), m.Addr))
		}
		if t.dataCount > 1 {
			c.sink.ReportError(coherence.ProtocolError{Where: c.Name(),
				Code: "HOST.MultiData", Addr: m.Addr, Detail: "duplicate data response tolerated"})
		}
		if t.cacheData == nil && m.Data != nil {
			t.cacheData = c.Fab.CopyBlock(m.Data)
			t.cacheDirt = m.Dirty
		}
		t.shared = true // an owner elsewhere means the block is shared
	case coherence.HAck:
		if m.Shared {
			t.shared = true
		}
	case coherence.HMemData:
		// A second memory response (possible only under fault injection)
		// replaces the first.
		c.Fab.FreeBlock(t.memData)
		t.memData = c.Fab.CopyBlock(m.Data)
	}
	t.got++
	if t.got < t.expected {
		return
	}
	c.completeGet(e)
}

func (c *Cache) completeGet(e *cacheset.Entry[cLine]) {
	t, st := e.V.txn, e.V.state
	op := t.op
	// The line adopts the block that answers the Get — no further copy —
	// and the other collected responses go back to the block list.
	data := e.V.data
	var dirty bool
	switch {
	case st == COM:
		// We are the owner: our copy is authoritative.
		dirty = e.V.dirty
	case t.cacheData != nil:
		data, dirty = t.cacheData, t.cacheDirt
		t.cacheData = nil
	case t.memData != nil:
		data, dirty = t.memData, false
		t.memData = nil
	default:
		// Response-counting tolerance: every response was an ack and
		// even memory data is missing (possible only under fuzzing with
		// TxnMods); complete with a zero block.
		if !c.txnMods {
			panic(fmt.Sprintf("%s: request for %v completed without data", c.Name(), e.Addr))
		}
		c.sink.ReportError(coherence.ProtocolError{Where: c.Name(),
			Code: "HOST.NoData", Addr: e.Addr, Detail: "request completed with zero block"})
		data, dirty = c.Fab.CopyBlock(nil), false
	}
	if data != e.V.data {
		c.Fab.FreeBlock(e.V.data)
		e.V.data = data
	}
	c.Fab.FreeBlock(t.cacheData)
	c.Fab.FreeBlock(t.memData)
	tookShared := false
	if st == CIS {
		if t.shared || t.noExcl {
			e.V.state = CS
			tookShared = true
		} else {
			e.V.state = CE
		}
		e.V.dirty = dirty
		if tookShared {
			e.V.dirty = false // the owner retains responsibility
		}
		c.Respond(op, e.V.data[op.Addr.Offset()])
	} else {
		e.V.state = CM
		e.V.dirty = true
		e.V.data[op.Addr.Offset()] = op.Val
		c.Respond(op, 0)
	}
	c.Txns.Put(t)
	e.V.txn = nil
	c.send(coherence.Msg{Type: coherence.HUnblock, Addr: e.Addr, Src: c.ID(), Dst: c.dir,
		Shared: tookShared})
	c.Settled(e.Addr)
}

// --- writeback acks and nacks ---

func (c *Cache) handleWBAck(m *coherence.Msg) {
	line := m.Addr.Line()
	wl := c.Buffered(line)
	if wl == nil {
		c.protocolError("I", m)
		return
	}
	c.Cov.Record(int(wl.state), cacheTable.Event(m.Type))
	switch wl.state {
	case CMI, COI, CEI:
		c.send(coherence.Msg{Type: coherence.HWBData, Addr: line, Src: c.ID(), Dst: c.dir,
			Data: wl.data, Dirty: wl.dirty})
		c.Retire(line, wl.data)
	case CII:
		// We no longer own the block; the WBAck is for a Put the
		// directory accepted before ownership moved — complete with a
		// clean (ignored) writeback so the directory can close.
		c.send(coherence.Msg{Type: coherence.HWBData, Addr: line, Src: c.ID(), Dst: c.dir,
			Data: wl.data, Dirty: false})
		c.Retire(line, wl.data)
	default:
		c.protocolError(wl.state.String(), m)
	}
}

func (c *Cache) handleNack(m *coherence.Msg) {
	line := m.Addr.Line()
	if wl := c.Buffered(line); wl != nil {
		c.Cov.Record(int(wl.state), cacheTable.Event(m.Type))
		if wl.state == CII {
			// Normal race resolution: ownership moved while our Put was
			// queued; the data already went to the new owner.
			c.Retire(line, wl.data)
			return
		}
		// A Nack in MI/OI/EI means the directory disagrees about
		// ownership without us having seen a FwdGetM: impossible in a
		// correct system, possible after accelerator-corrupted state.
		if !c.txnMods {
			panic(fmt.Sprintf("%s: Nack in %v for %v", c.Name(), wl.state, line))
		}
		c.NacksSunk++
		c.sink.ReportError(coherence.ProtocolError{Where: c.Name(),
			Code: "HOST.UnexpectedNack", Addr: line,
			Detail: fmt.Sprintf("Nack sunk in state %v; dropping writeback", wl.state)})
		c.Retire(line, wl.data)
		return
	}
	// Paper §3.2.1: host caches must sink unexpected Nacks and raise an
	// error instead of crashing.
	st := CI
	if e := c.Lines.Peek(m.Addr); e != nil {
		st = e.V.state
	}
	c.Cov.Record(int(st), cacheTable.Event(m.Type))
	if !c.txnMods {
		panic(fmt.Sprintf("%s: unexpected Nack in state %s for %v", c.Name(), st, line))
	}
	c.NacksSunk++
	c.sink.ReportError(coherence.ProtocolError{Where: c.Name(),
		Code: "HOST.UnexpectedNack", Addr: line, Detail: "Nack sunk in state " + st.String()})
}

// Held reports every stable valid line for invariant checks.
func (c *Cache) Held(fn chassis.HeldFunc) {
	c.Lines.Visit(func(e *cacheset.Entry[cLine]) {
		if e.V.state.Stable() && e.V.state != CI {
			fn(e.Addr, e.V.state.Level(), e.V.data, e.V.dirty)
		}
	})
}
