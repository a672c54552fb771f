package mesi

import (
	"fmt"
	"slices"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// l2Txn is the open transaction on one L2 line, a record of the L2's
// Txns the line points to while it is busy. The L2 processes one
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
// given back when the line leaves the cache; txn is nil while it is idle.
type l2Line struct {
	state   L2State
	data    *mem.Block
	dirty   bool // relative to memory
	sharers coherence.NodeSet
	owner   coherence.NodeID
	txn     *l2Txn
}

func (v *l2Line) busy() bool { return v.txn != nil }

// kind is the line's open transaction, txnNone when it is idle.
func (v *l2Line) kind() txnKind {
	if v.txn == nil {
		return txnNone
	}
	return v.txn.kind
}

// open starts line v's transaction on a record whose node sets keep their
// storage from one transaction to the next.
func (l *L2) open(v *l2Line, kind txnKind, requestor, oldOwner coherence.NodeID) *l2Txn {
	t := l.txns.Get()
	*t = l2Txn{kind: kind, requestor: requestor, oldOwner: oldOwner,
		invalidated: t.invalidated[:0], recallWait: t.recallWait[:0]}
	v.txn = t
	return t
}

// closeTxn leaves line v idle.
func (l *L2) closeTxn(v *l2Line) {
	v.txn.req = nil
	l.txns.Put(v.txn)
	v.txn = nil
}

// L2 is the shared inclusive L2 with its integrated directory and the
// memory controller behind it, run from its transition table (l2Rules).
type L2 struct {
	id   coherence.NodeID
	name string
	eng  *sim.Engine
	fab  *network.Fabric
	cfg  Config
	sink coherence.ErrorSink

	cache *cacheset.Cache[l2Line]
	txns  coherence.Txns[l2Txn]
	// spare is the sharer-set storage of lines that have left the cache,
	// for the next lines fetched.
	spare     coherence.NodeSets
	memory    *mem.Memory
	waiting   coherence.LineQueues
	stalled   []*coherence.Msg // kept until replayed
	replaying *coherence.Msg   // message being replayed from the queue head
	// doRecv, doServeHit and doFetchDone are Recv, serveHit and fetchDone
	// bound once (CallAfter's handlers).
	doRecv, doServeHit, doFetchDone func(*coherence.Msg)

	// Cov records (state, event) coverage.
	Cov *coherence.Coverage
	// StrayPuts counts Puts from a cache that does not own the line: a
	// legitimate race, not an error.
	StrayPuts uint64
}

// NewL2 builds and registers the shared L2 over the given backing memory.
func NewL2(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	memory *mem.Memory, cfg Config, sink coherence.ErrorSink) *L2 {
	l := &L2{
		id: id, name: name, eng: eng, fab: fab, cfg: cfg, sink: sink,
		cache:  cacheset.New[l2Line](cfg.L2Sets, cfg.L2Ways),
		memory: memory,
		Cov:    l2Rules.Coverage(),
	}
	l.doRecv, l.doServeHit, l.doFetchDone = l.Recv, l.serveHit, l.fetchDone
	fab.Register(l)
	return l
}

// Restart returns the L2 to its just-built state for the machine's next
// run, keeping its storage. The machine's Reset calls it.
func (l *L2) Restart() {
	l.cache.Visit(func(e *cacheset.Entry[l2Line]) { l.spare.Put(e.V.sharers) })
	l.cache.Reset()
	l.txns.Reset()
	l.waiting.Reset()
	clear(l.stalled)
	l.stalled, l.replaying = l.stalled[:0], nil
	l.Cov.Reset()
	l.StrayPuts = 0
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

// l2Action is what a cell of the L2's table does. The first three take a
// request on an idle line, so they wait behind queued requests.
type l2Action uint8

const (
	fetchGet      l2Action = iota // allocate the line and fetch it from memory, then serve the Get
	lookupGet                     // reserve the line for the lookup latency, then serve the Get
	takePut                       // take the owner's writeback; ack any Put
	ackStrayPut                   // ack a Put for a line the L2 does not hold
	queueReq                      // queue the request behind the open transaction
	busyPut                       // a Put racing the open transaction (see Recv)
	forgetSharer                  // PutS: forget the sharer, fire-and-forget
	takeUnblock                   // the requestor closes its GetS or GetM
	takeCopy                      // an L1's copy of the line (see takeCopy)
	takeRecallAck                 // an L1 answers the recall
	dropLate                      // a copy or recall ack no transaction awaits: a legitimate race
)

var (
	l2Gets       = []int{l2Table.Event(coherence.MGetS), l2Table.Event(coherence.MGetM), l2Table.Event(coherence.MGetInstr)}
	l2PutM       = []int{l2Table.Event(coherence.MPutM)}
	l2PutS       = []int{l2Table.Event(coherence.MPutS)}
	l2Unblock    = []int{l2Table.Event(coherence.MUnblock)}
	l2Copy       = []int{l2Table.Event(coherence.MCopyToL2)}
	l2RecallAck  = []int{l2Table.Event(coherence.MInvAckToL2)}
	l2LateCopies = slices.Concat(l2Copy, l2RecallAck)
)

// l2Rules is the L2's table, keyed on its coverage state. An Unblock with
// no GetS or GetM open, and every message the L2 is never sent, is a
// protocol error.
var l2Rules = coherence.NewRules("mesi.L2", l2Table, []coherence.Row[int, l2Action]{
	{St: l2NP, Evs: l2Gets, Do: fetchGet},
	{St: l2NP, Evs: l2PutM, Do: ackStrayPut},
	{St: l2NP, Evs: l2PutS, Do: forgetSharer},
	{St: l2NP, Evs: l2LateCopies, Do: dropLate},
	{St: int(L2SS), Evs: l2Gets, Do: lookupGet},
	{St: int(L2SS), Evs: l2PutM, Do: takePut},
	{St: int(L2SS), Evs: l2PutS, Do: forgetSharer},
	{St: int(L2SS), Evs: l2LateCopies, Do: dropLate},
	{St: int(L2MT), Evs: l2Gets, Do: lookupGet},
	{St: int(L2MT), Evs: l2PutM, Do: takePut},
	{St: int(L2MT), Evs: l2PutS, Do: forgetSharer},
	{St: int(L2MT), Evs: l2LateCopies, Do: dropLate},
	{St: l2SSBusy, Evs: l2Gets, Do: queueReq},
	{St: l2SSBusy, Evs: l2PutM, Do: busyPut},
	{St: l2SSBusy, Evs: l2PutS, Do: forgetSharer},
	{St: l2SSBusy, Evs: l2Unblock, Do: takeUnblock},
	{St: l2SSBusy, Evs: l2Copy, Do: takeCopy},
	{St: l2SSBusy, Evs: l2RecallAck, Do: takeRecallAck},
	{St: l2MTBusy, Evs: l2Gets, Do: queueReq},
	{St: l2MTBusy, Evs: l2PutM, Do: busyPut},
	{St: l2MTBusy, Evs: l2PutS, Do: forgetSharer},
	{St: l2MTBusy, Evs: l2Unblock, Do: takeUnblock},
	{St: l2MTBusy, Evs: l2Copy, Do: takeCopy},
	{St: l2MTBusy, Evs: l2RecallAck, Do: takeRecallAck},
})

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

// Recv implements coherence.Controller: a message runs the cell of its
// line's coverage state, once the per-line FIFO lets it.
func (l *L2) Recv(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	k, ev := l.covState(e), l2Table.Event(m.Type)
	l.Cov.Record(k, ev)
	do := l2Rules.At(k, ev)
	if do == nil {
		l.protocolError(l2Table.States()[k], m)
		return
	}
	act := *do
	if act <= takePut && l.waiting.Waiting(addr) && m != l.replaying {
		// Strict per-line FIFO: nothing may overtake queued requests.
		act = queueReq
	}
	switch act {
	case fetchGet:
		l.missFetch(m)
	case lookupGet:
		// Reserve the line for the duration of the lookup latency so that
		// a second request cannot start a racing transaction.
		l.open(&e.V, txnLookup, m.Src, coherence.NodeNone).req = m
		l.fab.CallAfter(l.cfg.L2Lat, l.doServeHit, m)
	case takePut, ackStrayPut:
		if e != nil && e.V.owner == m.Src {
			if m.Data != nil {
				l.fab.FillBlock(&e.V.data, m.Data)
			}
			if m.Dirty {
				e.V.dirty = true
			}
			e.V.owner = coherence.NodeNone
			e.V.state = L2SS
		} else {
			// A stale Put from a cache that lost ownership earlier, one
			// that raced a recall which already freed the line, or a
			// stray accelerator Put: ack and drop it — the paper notes
			// the MESI host tolerates accelerator requests at any time
			// unchanged.
			if e != nil {
				e.V.sharers.Remove(m.Src)
			}
			l.StrayPuts++
		}
		l.ackPut(m)
		l.popWaiting(addr)
	case queueReq:
		l.waiting.Push(addr, m)
	case busyPut:
		switch t := e.V.txn; {
		case m.Src == t.oldOwner:
			// The Put raced with a forward we already sent; the data is
			// (or will be) supplied by the forward response.
			l.ackPut(m)
		case t.kind == txnRecall && t.recallWait.Remove(m.Src):
			// The Put raced with our recall; absorb it as the recall reply.
			if m.Dirty {
				l.fab.FillBlock(&e.V.data, m.Data)
				e.V.dirty = true
			}
			l.ackPut(m)
			l.maybeFinishRecall(addr, e)
		default:
			l.waiting.Push(addr, m)
		}
	case forgetSharer:
		if e != nil {
			e.V.sharers.Remove(m.Src)
		}
	case takeUnblock:
		// Only a GetS or GetM waits for its requestor's Unblock.
		if t := e.V.txn; t.requestor != m.Src || t.kind != txnGetS && t.kind != txnGetM {
			l.protocolError(l2Table.States()[k], m)
			return
		}
		e.V.txn.unblocked = true
		l.maybeCloseTxn(addr, e)
	case takeCopy:
		l.takeCopy(e, m)
	case takeRecallAck:
		if e.V.kind() == txnRecall && e.V.txn.recallWait.Remove(m.Src) {
			l.maybeFinishRecall(addr, e)
		}
	}
}

// send takes a message holding t from the pool and hands it to the fabric.
func (l *L2) send(t coherence.Msg) { l.fab.Send(l.fab.Msg(t)) }

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
		l.spare.Put(victim.V.sharers)
	}
	e.V = l2Line{state: L2SS, owner: coherence.NodeNone, sharers: l.spare.Get()}
	l.open(&e.V, txnFetch, m.Src, coherence.NodeNone).req = m
	l.fab.CallAfter(l.cfg.L2Lat+l.cfg.MemLat, l.doFetchDone, m)
}

// fetchDone lands the memory fetch missFetch started for m and serves it.
func (l *L2) fetchDone(m *coherence.Msg) {
	addr := m.Addr.Line()
	le := l.cache.Peek(addr)
	if le == nil || le.V.kind() != txnFetch {
		panic(fmt.Sprintf("%s: fetch completion for %v found no fetch txn", l.name, addr))
	}
	req := le.V.txn.req
	le.V.data = l.fab.CopyBlock(nil)
	l.memory.ReadInto(addr, le.V.data)
	le.V.dirty = false
	l.closeTxn(&le.V)
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
	if e.V.kind() == txnLookup && e.V.txn.req == m {
		l.closeTxn(&e.V) // lookup reservation resolves into the real txn below
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
			l.open(&e.V, txnGetS, r, o).needCopy = true
			l.send(coherence.Msg{Type: coherence.MFwdGetS, Addr: addr, Src: l.id, Dst: o, Requestor: r})
		case coherence.MGetM:
			l.open(&e.V, txnGetM, r, o)
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
			l.open(&e.V, txnGetS, r, coherence.NodeNone)
			l.send(coherence.Msg{Type: ty, Addr: addr, Src: l.id, Dst: r, Data: e.V.data})
		case coherence.MGetM:
			t := l.open(&e.V, txnGetM, r, coherence.NodeNone)
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
				Data: e.V.data, Acks: int32(len(t.invalidated))})
		}
	}
}

func (l *L2) ackPut(m *coherence.Msg) {
	l.send(coherence.Msg{Type: coherence.MWBAck, Addr: m.Addr.Line(), Src: l.id, Dst: m.Src})
}

// takeCopy takes L1 copy m into busy line e: the old
// owner's copy a GetS awaits, or a recall reply. A copy from neither is
// late, a legitimate race, and dropped.
func (l *L2) takeCopy(e *cacheset.Entry[l2Line], m *coherence.Msg) {
	addr, t := e.Addr, e.V.txn
	switch {
	case t.kind == txnGetS && t.needCopy && m.Src == t.oldOwner:
		l.fab.FillBlock(&e.V.data, m.Data)
		if m.Dirty {
			e.V.dirty = true
		}
		t.copyIn = true
		l.maybeCloseTxn(addr, e)
	case t.kind == txnRecall && t.recallWait.Has(m.Src):
		l.fab.FillBlock(&e.V.data, m.Data)
		if m.Dirty {
			e.V.dirty = true
		}
		t.recallWait.Remove(m.Src)
		l.maybeFinishRecall(addr, e)
	case t.kind == txnGetM && t.invalidated.Has(m.Src):
		// Paper §3.2.2: a buggy accelerator answered an Inv with a
		// writeback; the L2 acks the requestor on its behalf.
		if !l.cfg.TxnMods {
			l.protocolError(l2Table.States()[l.covState(e)], m)
			return
		}
		t.invalidated.Remove(m.Src)
		l.sink.ReportError(coherence.ProtocolError{Where: l.name,
			Code: "HOST.WBAsAck", Addr: addr,
			Detail: "writeback accepted as InvAck; acking requestor on its behalf"})
		l.send(coherence.Msg{Type: coherence.MInvAck, Addr: addr, Src: l.id, Dst: t.requestor})
	}
}

func (l *L2) maybeCloseTxn(addr mem.Addr, e *cacheset.Entry[l2Line]) {
	t := e.V.txn
	if t == nil || !t.unblocked || (t.needCopy && !t.copyIn) {
		return
	}
	if t.kind == txnGetS && t.oldOwner != coherence.NodeNone {
		// Owner downgraded to S; requestor joined the sharers.
		e.V.state = L2SS
		e.V.owner = coherence.NodeNone
		e.V.sharers.Add(t.oldOwner)
		e.V.sharers.Add(t.requestor)
	}
	l.closeTxn(&e.V)
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
	// No requestor: a recall takes no Unblock.
	t := l.open(&cand.V, txnRecall, 0, coherence.NodeNone)
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

func (l *L2) maybeFinishRecall(addr mem.Addr, e *cacheset.Entry[l2Line]) {
	if e.V.kind() != txnRecall || len(e.V.txn.recallWait) > 0 {
		return
	}
	if e.V.dirty {
		l.memory.Write(addr, e.V.data)
	}
	l.fab.FreeBlock(e.V.data)
	l.spare.Put(e.V.sharers)
	l.closeTxn(&e.V)
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

// OpenTxns reports the lines with a transaction open (none at quiesce).
func (l *L2) OpenTxns() int { return l.txns.Live() }

// Outstanding reports open transactions and queued work.
func (l *L2) Outstanding() int { return l.txns.Live() + len(l.stalled) + l.waiting.Len() }

// Coverage returns the L2's (state, event) coverage.
func (l *L2) Coverage() *coherence.Coverage { return l.Cov }

// Line reports addr's recorded owner and the L2's copy of the line, if
// it holds one: the L2 is inclusive.
func (l *L2) Line(addr mem.Addr) (coherence.NodeID, *mem.Block, bool) {
	if e := l.cache.Peek(addr); e != nil {
		return e.V.owner, e.V.data, true
	}
	return coherence.NodeNone, nil, false
}

// Held reports every idle line as Exclusive, dirty relative to memory.
func (l *L2) Held(fn chassis.HeldFunc) {
	l.cache.Visit(func(e *cacheset.Entry[l2Line]) {
		if !e.V.busy() {
			fn(e.Addr, chassis.Exclusive, e.V.data, e.V.dirty)
		}
	})
}

// VisitOwned reports every idle line an L1 is recorded as owning.
func (l *L2) VisitOwned(fn func(addr mem.Addr, owner coherence.NodeID)) {
	l.cache.Visit(func(e *cacheset.Entry[l2Line]) {
		if !e.V.busy() && e.V.owner != coherence.NodeNone {
			fn(e.Addr, e.V.owner)
		}
	})
}
