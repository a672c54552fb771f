package mesi

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// l2Txn is the open transaction on one L2 line, held by value in the
// line (kind txnNone when the line is idle). The L2 processes one
// transaction per line at a time; later requests queue.
type l2Txn struct {
	kind        txnKind
	requestor   coherence.NodeID
	req         *coherence.Msg // original request, kept (lookup, fetch)
	oldOwner    coherence.NodeID
	unblocked   bool
	needCopy    bool
	copyIn      bool
	invalidated coherence.NodeSet // sharers told to ack the requestor
	recallWait  coherence.NodeSet
}

// l2Line is the protocol payload of one L2 line. data is the L2's own
// block, taken from the machine's block list when the fetch lands and
// given back when the line leaves the cache.
type l2Line struct {
	state   L2State
	data    *mem.Block
	dirty   bool // relative to memory
	sharers coherence.NodeSet
	owner   coherence.NodeID
	txn     l2Txn
}

func (v *l2Line) busy() bool { return v.txn.kind != txnNone }

// open starts the line's transaction; the node sets keep their storage
// from one transaction to the next.
func (v *l2Line) open(kind txnKind, requestor, oldOwner coherence.NodeID) *l2Txn {
	v.txn = l2Txn{kind: kind, requestor: requestor, oldOwner: oldOwner,
		invalidated: v.txn.invalidated[:0], recallWait: v.txn.recallWait[:0]}
	return &v.txn
}

// closeTxn leaves the line idle.
func (v *l2Line) closeTxn() { v.txn.kind, v.txn.req = txnNone, nil }

// L2 is the shared inclusive L2 with its integrated directory and the
// memory controller behind it.
type L2 struct {
	id   coherence.NodeID
	name string
	eng  *sim.Engine
	fab  *network.Fabric
	cfg  Config
	sink coherence.ErrorSink

	cache     *cacheset.Cache[l2Line]
	memory    *mem.Memory
	waiting   coherence.LineQueues
	stalled   []*coherence.Msg // kept until replayed
	replaying *coherence.Msg   // message being replayed from the queue head
	// doRecv, doServeHit and doFetchDone are Recv, serveHit and fetchDone
	// bound once (CallAfter's handlers).
	doRecv, doServeHit, doFetchDone func(*coherence.Msg)

	// Cov records (state, event) coverage.
	Cov *coherence.Coverage
	// Race/tolerance counters (legitimate protocol races, not errors).
	StrayPuts, StrayCopies, StrayAcks uint64
}

// NewL2 builds and registers the shared L2 over the given backing memory.
func NewL2(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	memory *mem.Memory, cfg Config, sink coherence.ErrorSink) *L2 {
	l := &L2{
		id: id, name: name, eng: eng, fab: fab, cfg: cfg, sink: sink,
		cache:   cacheset.New[l2Line](cfg.L2Sets, cfg.L2Ways),
		memory:  memory,
		waiting: make(coherence.LineQueues),
		Cov:     NewL2Coverage(),
	}
	l.doRecv, l.doServeHit, l.doFetchDone = l.Recv, l.serveHit, l.fetchDone
	fab.Register(l)
	return l
}

// L2 coverage states: not present, or the L2State with or without a
// transaction open.
const (
	l2NP = int(L2MT) + 1 + iota
	l2SSBusy
	l2MTBusy
)

// l2Table is the L2's coverage vocabulary; it has no local events.
var l2Table = coherence.NewTable(
	[]string{int(L2SS): "SS", int(L2MT): "MT", l2NP: "NP", l2SSBusy: "SS+busy", l2MTBusy: "MT+busy"}, nil, mesiMsgs...)

// NewL2Coverage declares reachable (state, event) pairs for the L2.
func NewL2Coverage() *coherence.Coverage {
	cov := coherence.NewCoverage("mesi.L2", l2Table)
	var events []int
	for _, m := range []coherence.MsgType{coherence.MGetS, coherence.MGetM, coherence.MGetInstr,
		coherence.MPutM, coherence.MPutS, coherence.MUnblock, coherence.MCopyToL2, coherence.MInvAckToL2} {
		events = append(events, l2Table.Event(m))
	}
	cov.DeclareAll([]int{l2NP, int(L2SS), int(L2MT), l2SSBusy, l2MTBusy}, events)
	return cov
}

// ID implements coherence.Controller.
func (l *L2) ID() coherence.NodeID { return l.id }

// Name implements coherence.Controller.
func (l *L2) Name() string { return l.name }

// covState is the line's coverage state.
func (l *L2) covState(e *cacheset.Entry[l2Line]) int {
	switch {
	case e == nil:
		return l2NP
	case !e.V.busy():
		return int(e.V.state)
	case e.V.state == L2SS:
		return l2SSBusy
	}
	return l2MTBusy
}

func (l *L2) stateName(e *cacheset.Entry[l2Line]) string { return l2Table.States()[l.covState(e)] }

func (l *L2) protocolError(state string, m *coherence.Msg) {
	if l.cfg.TxnMods {
		l.sink.ReportError(coherence.ProtocolError{
			Where: l.name, Code: "HOST.L2.Unexpected", Addr: m.Addr,
			Detail: fmt.Sprintf("state %s event %v", state, m.Type),
		})
		return
	}
	panic(fmt.Sprintf("%s: unexpected %v in state %s", l.name, m, state))
}

// Recv implements coherence.Controller.
func (l *L2) Recv(m *coherence.Msg) {
	e := l.cache.Peek(m.Addr)
	l.Cov.Record(l.covState(e), l2Table.Event(m.Type))
	switch m.Type {
	case coherence.MGetS, coherence.MGetM, coherence.MGetInstr:
		l.handleGet(m)
	case coherence.MPutM:
		l.handlePut(m)
	case coherence.MPutS:
		l.handlePutS(m)
	case coherence.MUnblock:
		l.handleUnblock(m)
	case coherence.MCopyToL2:
		l.handleCopy(m)
	case coherence.MInvAckToL2:
		l.handleRecallAck(m)
	default:
		l.protocolError(l.stateName(e), m)
	}
}

// send takes a message holding t from the pool and hands it to the fabric.
func (l *L2) send(t coherence.Msg) { l.fab.Send(l.fab.Msg(t)) }

// --- Get handling ---

func (l *L2) handleGet(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if (e != nil && e.V.busy()) || (l.waiting.Waiting(addr) && m != l.replaying) {
		// Strict per-line FIFO: nothing may overtake queued requests.
		l.waiting.Push(addr, m)
		return
	}
	if e == nil {
		l.missFetch(m)
		return
	}
	// Reserve the line for the duration of the lookup latency so that a
	// second request cannot start a racing transaction.
	e.V.open(txnLookup, m.Src, coherence.NodeNone).req = m
	l.fab.CallAfter(l.cfg.L2Lat, l.doServeHit, m)
}

// missFetch allocates a line and fetches it from memory; the original
// request is replayed when the data arrives.
func (l *L2) missFetch(m *coherence.Msg) {
	addr := m.Addr.Line()
	var victim cacheset.Entry[l2Line]
	e, evicted, ok := l.cache.Allocate(addr, func(e *cacheset.Entry[l2Line]) bool {
		return !e.V.busy() && e.V.owner == coherence.NodeNone && len(e.V.sharers) == 0
	}, &victim)
	if !ok {
		// Every way is either busy or still has L1 copies: recall the
		// LRU candidate with copies, then retry.
		l.startRecallInSet(addr)
		m.Keep()
		l.stalled = append(l.stalled, m)
		return
	}
	if evicted {
		if victim.V.dirty {
			l.memory.Write(victim.Addr, victim.V.data)
		}
		l.fab.FreeBlock(victim.V.data)
	}
	e.V = l2Line{state: L2SS, owner: coherence.NodeNone}
	e.V.open(txnFetch, m.Src, coherence.NodeNone).req = m
	l.fab.CallAfter(l.cfg.L2Lat+l.cfg.MemLat, l.doFetchDone, m)
}

// fetchDone lands the memory fetch missFetch started for m and serves it.
func (l *L2) fetchDone(m *coherence.Msg) {
	addr := m.Addr.Line()
	le := l.cache.Peek(addr)
	if le == nil || le.V.txn.kind != txnFetch {
		panic(fmt.Sprintf("%s: fetch completion for %v found no fetch txn", l.name, addr))
	}
	req := le.V.txn.req
	le.V.data = l.fab.CopyBlock(nil)
	l.memory.ReadInto(addr, le.V.data)
	le.V.dirty = false
	le.V.closeTxn()
	l.serveHit(req)
}

// serveHit serves a Get against a present, idle line.
func (l *L2) serveHit(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil {
		// The line moved under a replayed request; start over.
		l.fab.CallAfter(0, l.doRecv, m)
		return
	}
	if e.V.txn.kind == txnLookup && e.V.txn.req == m {
		e.V.closeTxn() // lookup reservation resolves into the real txn below
	} else if e.V.busy() {
		l.fab.CallAfter(0, l.doRecv, m)
		return
	}
	r := m.Src
	switch e.V.state {
	case L2MT:
		o := e.V.owner
		switch m.Type {
		case coherence.MGetS, coherence.MGetInstr:
			e.V.open(txnGetS, r, o).needCopy = true
			l.send(coherence.Msg{Type: coherence.MFwdGetS, Addr: addr, Src: l.id, Dst: o, Requestor: r})
		case coherence.MGetM:
			e.V.open(txnGetM, r, o)
			e.V.owner = r
			// Tell the requestor to expect exactly one response; the
			// data arrives directly from the old owner.
			l.send(coherence.Msg{Type: coherence.MDataAcks, Addr: addr, Src: l.id, Dst: r, Acks: 1})
			l.send(coherence.Msg{Type: coherence.MFwdGetM, Addr: addr, Src: l.id, Dst: o, Requestor: r})
		}
	case L2SS:
		switch m.Type {
		case coherence.MGetS, coherence.MGetInstr:
			ty := coherence.MDataS
			if len(e.V.sharers) == 0 && m.Type == coherence.MGetS {
				// Exclusive grant: no other cache holds the line.
				e.V.state = L2MT
				e.V.owner = r
				ty = coherence.MDataE
			} else {
				e.V.sharers.Add(r)
			}
			e.V.open(txnGetS, r, coherence.NodeNone)
			l.send(coherence.Msg{Type: ty, Addr: addr, Src: l.id, Dst: r, Data: e.V.data})
		case coherence.MGetM:
			t := e.V.open(txnGetM, r, coherence.NodeNone)
			for _, s := range e.V.sharers {
				if s != r {
					t.invalidated = append(t.invalidated, s) // ascending, like sharers
					l.send(coherence.Msg{Type: coherence.MInv, Addr: addr, Src: l.id, Dst: s, Requestor: r})
				}
			}
			e.V.sharers = e.V.sharers[:0]
			e.V.owner = r
			e.V.state = L2MT
			l.send(coherence.Msg{Type: coherence.MDataAcks, Addr: addr, Src: l.id, Dst: r,
				Data: e.V.data, Acks: len(t.invalidated)})
		}
	}
}

// --- writebacks ---

func (l *L2) handlePut(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil {
		// Raced with a recall that already freed the line (or a stray
		// accelerator Put): ack and drop — the paper notes the MESI
		// host tolerates accelerator requests at any time unchanged.
		l.StrayPuts++
		l.ackPut(m)
		l.popWaiting(addr)
		return
	}
	if t := &e.V.txn; !e.V.busy() && l.waiting.Waiting(addr) && m != l.replaying {
		l.waiting.Push(addr, m)
		return
	} else if e.V.busy() {
		switch {
		case m.Src == t.oldOwner:
			// Put raced with a forward we already sent; the data is
			// (or will be) supplied by the forward response.
			l.ackPut(m)
		case t.kind == txnRecall && t.recallWait.Remove(m.Src):
			// Put raced with our recall; absorb it as the recall reply.
			if m.Dirty {
				l.fab.FillBlock(&e.V.data, m.Data)
				e.V.dirty = true
			}
			l.ackPut(m)
			l.maybeFinishRecall(addr, e)
		default:
			l.waiting.Push(addr, m)
		}
		return
	}
	switch {
	case e.V.owner == m.Src:
		if m.Data != nil {
			l.fab.FillBlock(&e.V.data, m.Data)
		}
		if m.Dirty {
			e.V.dirty = true
		}
		e.V.owner = coherence.NodeNone
		e.V.state = L2SS
		l.ackPut(m)
	case e.V.sharers.Remove(m.Src):
		// Stale Put from a cache that lost ownership earlier.
		l.StrayPuts++
		l.ackPut(m)
	default:
		l.StrayPuts++
		l.ackPut(m)
	}
	l.popWaiting(addr)
}

func (l *L2) ackPut(m *coherence.Msg) {
	l.send(coherence.Msg{Type: coherence.MWBAck, Addr: m.Addr.Line(), Src: l.id, Dst: m.Src})
}

func (l *L2) handlePutS(m *coherence.Msg) {
	if e := l.cache.Peek(m.Addr); e != nil {
		e.V.sharers.Remove(m.Src)
	}
	// Fire-and-forget: no ack, absent line ignored.
}

// --- transaction completion ---

func (l *L2) handleUnblock(m *coherence.Msg) {
	e := l.cache.Peek(m.Addr)
	if e == nil || !e.V.busy() || e.V.txn.requestor != m.Src {
		l.StrayAcks++
		l.protocolError(l.stateName(e), m)
		return
	}
	e.V.txn.unblocked = true
	l.maybeCloseTxn(m.Addr.Line(), e)
}

func (l *L2) handleCopy(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e != nil && e.V.busy() {
		t := &e.V.txn
		switch {
		case t.kind == txnGetS && t.needCopy && m.Src == t.oldOwner:
			l.fab.FillBlock(&e.V.data, m.Data)
			if m.Dirty {
				e.V.dirty = true
			}
			t.copyIn = true
			l.maybeCloseTxn(addr, e)
			return
		case t.kind == txnRecall && t.recallWait.Has(m.Src):
			l.fab.FillBlock(&e.V.data, m.Data)
			if m.Dirty {
				e.V.dirty = true
			}
			t.recallWait.Remove(m.Src)
			l.maybeFinishRecall(addr, e)
			return
		case t.kind == txnGetM && t.invalidated.Has(m.Src):
			// Paper §3.2.2: a buggy accelerator answered an Inv with a
			// writeback; the L2 acks the requestor on its behalf.
			if !l.cfg.TxnMods {
				l.protocolError(l.stateName(e), m)
				return
			}
			t.invalidated.Remove(m.Src)
			l.sink.ReportError(coherence.ProtocolError{Where: l.name,
				Code: "HOST.WBAsAck", Addr: addr,
				Detail: "writeback accepted as InvAck; acking requestor on its behalf"})
			l.send(coherence.Msg{Type: coherence.MInvAck, Addr: addr, Src: l.id, Dst: t.requestor})
			return
		}
	}
	// Late copy from a line already recalled/reassigned: a legitimate
	// race; drop it.
	l.StrayCopies++
}

func (l *L2) maybeCloseTxn(addr mem.Addr, e *cacheset.Entry[l2Line]) {
	t := &e.V.txn
	if !e.V.busy() || !t.unblocked || (t.needCopy && !t.copyIn) {
		return
	}
	if t.kind == txnGetS && t.oldOwner != coherence.NodeNone {
		// Owner downgraded to S; requestor joined the sharers.
		e.V.state = L2SS
		e.V.owner = coherence.NodeNone
		e.V.sharers.Add(t.oldOwner)
		e.V.sharers.Add(t.requestor)
	}
	e.V.closeTxn()
	l.popWaiting(addr)
	l.replayStalled()
}

// --- inclusive recall (eviction of a line with L1 copies) ---

// startRecallInSet picks the LRU idle line with copies in addr's set and
// begins recalling it.
func (l *L2) startRecallInSet(addr mem.Addr) {
	var cand *cacheset.Entry[l2Line]
	l.cache.VisitSet(addr, func(e *cacheset.Entry[l2Line]) {
		if e.V.busy() {
			return
		}
		if cand == nil || l.cache.LRUOrder(e) < l.cache.LRUOrder(cand) {
			cand = e
		}
	})
	if cand == nil {
		return // all ways busy; stalled request retries on any close
	}
	// No requestor: node 0, which an Unblock is checked against.
	t := cand.V.open(txnRecall, 0, coherence.NodeNone)
	for _, s := range cand.V.sharers {
		t.recallWait.Add(s)
		l.send(coherence.Msg{Type: coherence.MInvToL2, Addr: cand.Addr, Src: l.id, Dst: s})
	}
	if cand.V.owner != coherence.NodeNone {
		t.recallWait.Add(cand.V.owner)
		l.send(coherence.Msg{Type: coherence.MInvToL2, Addr: cand.Addr, Src: l.id, Dst: cand.V.owner})
	}
	l.maybeFinishRecall(cand.Addr, cand) // zero-copy lines finish at once
}

func (l *L2) handleRecallAck(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil || e.V.txn.kind != txnRecall || !e.V.txn.recallWait.Remove(m.Src) {
		l.StrayAcks++
		return
	}
	l.maybeFinishRecall(addr, e)
}

func (l *L2) maybeFinishRecall(addr mem.Addr, e *cacheset.Entry[l2Line]) {
	t := &e.V.txn
	if t.kind != txnRecall || len(t.recallWait) > 0 {
		return
	}
	if e.V.dirty {
		l.memory.Write(addr, e.V.data)
	}
	l.fab.FreeBlock(e.V.data)
	l.cache.Invalidate(addr)
	l.popWaiting(addr)
	l.replayStalled()
}

// --- wakeups ---

func (l *L2) popWaiting(addr mem.Addr) {
	next := l.waiting.Pop(addr)
	if next == nil {
		return
	}
	// Process synchronously so no same-tick arrival can cut in front.
	prev := l.replaying
	l.replaying = next
	l.fab.BeginRecv(next)
	l.Recv(next)
	l.fab.EndRecv(next)
	l.replaying = prev
}

func (l *L2) replayStalled() {
	for i, m := range l.stalled {
		l.fab.CallAfter(0, l.doRecv, m)
		l.stalled[i] = nil
	}
	l.stalled = l.stalled[:0]
}

// Outstanding reports open transactions and queued work.
func (l *L2) Outstanding() int {
	n := len(l.stalled) + l.waiting.Len()
	l.cache.Visit(func(e *cacheset.Entry[l2Line]) {
		if e.V.busy() {
			n++
		}
	})
	return n
}

// AuditLine reports the L2's stable view of a line for invariant checks:
// present, owner, sharer count, data, dirty.
func (l *L2) AuditLine(addr mem.Addr) (present bool, owner coherence.NodeID, sharers int, data *mem.Block, dirty bool) {
	e := l.cache.Peek(addr)
	if e == nil {
		return false, coherence.NodeNone, 0, nil, false
	}
	return true, e.V.owner, len(e.V.sharers), e.V.data, e.V.dirty
}

// Memory exposes the backing store for checkers.
func (l *L2) Memory() *mem.Memory { return l.memory }

// Coverage returns the L2's (state, event) coverage.
func (l *L2) Coverage() *coherence.Coverage { return l.Cov }

// Blocks reports the pooled blocks the L2 holds: one per line.
func (l *L2) Blocks() int { return l.cache.Count() }

// VisitOwned reports every idle line an L1 is recorded as owning.
func (l *L2) VisitOwned(fn func(addr mem.Addr, owner coherence.NodeID)) {
	l.cache.Visit(func(e *cacheset.Entry[l2Line]) {
		if !e.V.busy() && e.V.owner != coherence.NodeNone {
			fn(e.Addr, e.V.owner)
		}
	})
}
