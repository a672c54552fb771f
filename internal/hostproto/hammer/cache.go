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
}

// Cache is a private combined L1/L2 in the Hammer-like protocol, run from
// its transition table (cacheRules).
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
	c.Init(c, id, name, fab, cfg.Sets, cfg.Ways, cfg.HitLat, cacheRules.Coverage(),
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

var (
	fwdGetS, fwdGetSOnly, fwdGetM = cacheTable.Event(coherence.HFwdGetS), cacheTable.Event(coherence.HFwdGetSOnly),
		cacheTable.Event(coherence.HFwdGetM)
	wbAck, nack = cacheTable.Event(coherence.HWBAck), cacheTable.Event(coherence.HNack)
	resps       = []int{cacheTable.Event(coherence.HData), cacheTable.Event(coherence.HAck), cacheTable.Event(coherence.HMemData)}
)

// none is a cell that sends nothing.
const none = coherence.MsgInvalid

// action is what a cell of the cache's table does.
type action uint8

const (
	actHit     action = iota // complete the core operation
	actGet                   // send the Get and count its responses in the transient
	actEvict                 // send the Put and buffer the line, or with none drop it silently
	actAnswer                // answer the forward to its requestor: Data from an owner, else Ack
	actCollect               // count the response; the last completes the Get and sends Unblock
	actRetire                // close the write-back, sending WBData unless none
	actSink                  // TxnMods only: sink the unexpected Nack and raise an error
)

// A rule is one cell of the cache's table: what it does, the message it
// sends and the state the line enters.
type rule struct {
	act  action
	send coherence.MsgType
	next CState
}

func on(st CState, r rule, evs ...int) coherence.Row[CState, rule] {
	return coherence.Row[CState, rule]{St: st, Evs: evs, Do: r}
}

func hit(next CState) rule                      { return rule{actHit, none, next} }
func get(t coherence.MsgType, next CState) rule { return rule{actGet, t, next} }
func put(next CState) rule                      { return rule{actEvict, coherence.HPut, next} }
func data(next CState) rule                     { return rule{actAnswer, coherence.HData, next} }
func ack(next CState) rule                      { return rule{actAnswer, coherence.HAck, next} }
func collect(next CState) rule                  { return rule{actCollect, coherence.HUnblock, next} }
func retire(t coherence.MsgType) rule           { return rule{actRetire, t, CI} }
func sinkNack(next CState) rule                 { return rule{actSink, none, next} }

// cacheRules is the cache's table in the row format of paper Table 1. A
// Get's responses all count in its transient; the last enters the cell's
// next state, or S instead of E when a response said the block is shared.
// The Nack cells outside II are the §3.2.1 tolerance: a Nack the protocol
// never sends there is sunk, dropping a buffered write-back.
var cacheRules = coherence.NewRules("hammer.cache", cacheTable, []coherence.Row[CState, rule]{
	on(CI, get(coherence.HGetS, CIS), evLoad),
	on(CI, get(coherence.HGetM, CIM), evStore),
	on(CI, ack(CI), fwdGetS, fwdGetSOnly, fwdGetM),
	on(CI, sinkNack(CI), nack),
	on(CS, hit(CS), evLoad),
	on(CS, get(coherence.HGetM, CSM), evStore),
	on(CS, rule{actEvict, none, CI}, evReplacement), // Hammer evicts S silently
	on(CS, ack(CS), fwdGetS, fwdGetSOnly),
	on(CS, ack(CI), fwdGetM),
	on(CS, sinkNack(CS), nack),
	on(CE, hit(CE), evLoad),
	on(CE, hit(CM), evStore),
	on(CE, put(CEI), evReplacement),
	on(CE, data(CO), fwdGetS, fwdGetSOnly),
	on(CE, data(CI), fwdGetM),
	on(CE, sinkNack(CE), nack),
	on(CO, hit(CO), evLoad),
	on(CO, get(coherence.HGetM, COM), evStore),
	on(CO, put(COI), evReplacement),
	on(CO, data(CO), fwdGetS, fwdGetSOnly),
	on(CO, data(CI), fwdGetM),
	on(CO, sinkNack(CO), nack),
	on(CM, hit(CM), evLoad, evStore),
	on(CM, put(CMI), evReplacement),
	on(CM, data(CO), fwdGetS, fwdGetSOnly),
	on(CM, data(CI), fwdGetM),
	on(CM, sinkNack(CM), nack),
	on(CIS, ack(CIS), fwdGetS, fwdGetSOnly, fwdGetM),
	on(CIS, collect(CE), resps...),
	on(CIM, ack(CIM), fwdGetS, fwdGetSOnly, fwdGetM),
	on(CIM, collect(CM), resps...),
	on(CSM, ack(CSM), fwdGetS, fwdGetSOnly),
	on(CSM, ack(CIM), fwdGetM),
	on(CSM, collect(CM), resps...),
	on(COM, data(COM), fwdGetS, fwdGetSOnly),
	on(COM, data(CIM), fwdGetM), // our own GetM is still queued
	on(COM, collect(CM), resps...),
	on(CMI, data(CMI), fwdGetS, fwdGetSOnly),
	on(CMI, data(CII), fwdGetM),
	on(CMI, retire(coherence.HWBData), wbAck),
	on(CMI, sinkNack(CI), nack),
	on(COI, data(COI), fwdGetS, fwdGetSOnly),
	on(COI, data(CII), fwdGetM),
	on(COI, retire(coherence.HWBData), wbAck),
	on(COI, sinkNack(CI), nack),
	on(CEI, data(CEI), fwdGetS, fwdGetSOnly),
	on(CEI, data(CII), fwdGetM),
	on(CEI, retire(coherence.HWBData), wbAck),
	on(CEI, sinkNack(CI), nack),
	// Ownership moved on while the Put was queued: a WBAck is answered
	// with a clean WBData so the directory can close, a Nack ends the race.
	on(CII, ack(CII), fwdGetS, fwdGetSOnly, fwdGetM),
	on(CII, retire(coherence.HWBData), wbAck),
	on(CII, retire(none), nack),
})

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

// Recv implements coherence.Controller: a message runs the cell of the
// state its line is in, buffered or not.
func (c *Cache) Recv(m *coherence.Msg) {
	if m.Type == coherence.ReqLoad || m.Type == coherence.ReqStore {
		c.handleCPU(m)
		return
	}
	ev := cacheTable.Event(m.Type)
	if ev < 0 {
		c.protocolError("?", m)
		return
	}
	line, st := m.Addr.Line(), CI
	var e *cacheset.Entry[cLine]
	v := c.Buffered(line)
	if v == nil {
		if e = c.Lines.Peek(m.Addr); e != nil {
			v = &e.V
		}
	}
	if v != nil {
		st = v.state
	}
	c.Cov.Record(int(st), ev)
	r := cacheRules.At(st, ev)
	if r == nil {
		c.protocolError(st.String(), m)
		return
	}
	switch r.act {
	case actAnswer:
		c.answer(m, r, e, v)
	case actCollect:
		c.collect(e, r, m)
	case actRetire:
		if r.send != none {
			// In II the block has a new owner: the WBData is clean.
			c.send(coherence.Msg{Type: r.send, Addr: line, Src: c.ID(), Dst: c.dir,
				Data: v.data, Dirty: v.dirty && st != CII})
		}
		c.Retire(line, v.data)
	case actSink:
		// Paper §3.2.1: host caches must sink unexpected Nacks and raise
		// an error instead of crashing.
		if !c.txnMods {
			panic(fmt.Sprintf("%s: unexpected Nack in state %s for %v", c.Name(), st, line))
		}
		c.NacksSunk++
		c.sink.ReportError(coherence.ProtocolError{Where: c.Name(),
			Code: "HOST.UnexpectedNack", Addr: line, Detail: "Nack sunk in state " + st.String()})
		if r.next != st {
			c.Retire(line, v.data) // the write-back is dropped
		}
	}
}

// send takes a message holding t from the pool and hands it to the fabric.
func (c *Cache) send(t coherence.Msg) { c.Fab.Send(c.Fab.Msg(t)) }

func opEv(op *coherence.Msg) int {
	if op.Type == coherence.ReqStore {
		return evStore
	}
	return evLoad
}

func (c *Cache) handleCPU(m *coherence.Msg) {
	line, ev := m.Addr.Line(), opEv(m)
	e, ok := c.Admit(line, m)
	if !ok {
		return
	}
	st := CI
	if e != nil {
		st = e.V.state
	}
	c.Cov.Record(int(st), ev)
	if e == nil {
		if e = c.Allocate(line, m); e == nil {
			return
		}
	}
	r := cacheRules.At(st, ev)
	if r.act != actGet {
		c.hit(e, r, m)
		return
	}
	e.V.state, e.V.txn = r.next, c.Txns.Get()
	*e.V.txn = getTxn{expected: c.responses, op: m}
	c.send(coherence.Msg{Type: r.send, Addr: line, Src: c.ID(), Dst: c.dir})
}

// hit completes core operation op on line e, which enters r's next state.
func (c *Cache) hit(e *cacheset.Entry[cLine], r *rule, op *coherence.Msg) {
	e.V.state = r.next
	if op.Type == coherence.ReqStore {
		e.V.dirty = true
		e.V.data[op.Addr.Offset()] = op.Val
		c.Respond(op, 0)
		return
	}
	c.Respond(op, e.V.data[op.Addr.Offset()])
}

func (c *Cache) evict(addr mem.Addr, v *cLine) {
	c.Cov.Record(int(v.state), evReplacement)
	r := cacheRules.At(v.state, evReplacement)
	if r.send == none {
		c.Fab.FreeBlock(v.data)
		return
	}
	v.state = r.next
	c.Buffer(addr, v)
	c.send(coherence.Msg{Type: r.send, Addr: addr, Src: c.ID(), Dst: c.dir})
}

// answer sends forward m's requestor r's response and moves line v, nil in
// I, to r's next state. Data carries the owner's block and says Shared; an
// Ack says Shared when the line keeps an S copy.
func (c *Cache) answer(m *coherence.Msg, r *rule, e *cacheset.Entry[cLine], v *cLine) {
	line := m.Addr.Line()
	out := coherence.Msg{Type: r.send, Addr: line, Src: c.ID(), Dst: m.Requestor,
		Shared: r.next == CS || r.next == CSM}
	if r.send == coherence.HData {
		out.Data, out.Dirty, out.Shared = v.data, v.dirty, true
	}
	c.send(out)
	switch {
	case v == nil || r.next == v.state:
	case r.next == CI:
		c.Drop(e, e.V.data)
		c.Settled(line)
	default:
		v.state = r.next
	}
}

// collect counts response m to line e's open Get, and on the last one
// completes the Get into r's next state.
func (c *Cache) collect(e *cacheset.Entry[cLine], r *rule, m *coherence.Msg) {
	t := e.V.txn
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
	// The line adopts the block that answers the Get — no further copy —
	// and the other collected responses go back to the block list.
	data := e.V.data
	switch {
	case e.V.state == COM:
		// We are the owner: our copy is authoritative.
	case t.cacheData != nil:
		data, t.cacheData = t.cacheData, nil
	case t.memData != nil:
		data, t.memData = t.memData, nil
	default:
		// Response-counting tolerance: every response was an ack and
		// even memory data is missing (possible only under fuzzing with
		// TxnMods); complete with a zero block.
		if !c.txnMods {
			panic(fmt.Sprintf("%s: request for %v completed without data", c.Name(), e.Addr))
		}
		c.sink.ReportError(coherence.ProtocolError{Where: c.Name(),
			Code: "HOST.NoData", Addr: e.Addr, Detail: "request completed with zero block"})
		data = c.Fab.CopyBlock(nil)
	}
	if data != e.V.data {
		c.Fab.FreeBlock(e.V.data)
		e.V.data = data
	}
	c.Fab.FreeBlock(t.cacheData)
	c.Fab.FreeBlock(t.memData)
	next, op := r.next, t.op
	if next == CE && t.shared {
		next = CS // the owner retains responsibility for the data
	}
	c.Txns.Put(t)
	e.V.state, e.V.dirty, e.V.txn = next, false, nil
	c.hit(e, cacheRules.At(next, opEv(op)), op)
	c.send(coherence.Msg{Type: coherence.HUnblock, Addr: e.Addr, Src: c.ID(), Dst: c.dir,
		Shared: next == CS})
	c.Settled(e.Addr)
}

// Held reports every stable valid line for invariant checks.
func (c *Cache) Held(fn chassis.HeldFunc) {
	c.Lines.Visit(func(e *cacheset.Entry[cLine]) {
		if e.V.state.Stable() && e.V.state != CI {
			fn(e.Addr, e.V.state.Level(), e.V.data, e.V.dirty)
		}
	})
}
