package mesi

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
)

// l1Line is the protocol payload of one L1 cache line. data is the L1's
// own block, taken from the machine's block list at fill and given back
// at invalidation; txn is the open Get's record, nil in a stable state.
type l1Line struct {
	state L1State
	data  *mem.Block
	dirty bool // modified relative to the L2
	txn   *l1Txn
}

// l1Txn is an open Get: what it waits for and who waits on it.
type l1Txn struct {
	needed int              // responses to await for a GetM (-1 = unknown)
	got    int              // responses received so far
	op     *coherence.Msg   // CPU operation driving the transaction
	fwds   []*coherence.Msg // forwards queued until the line stabilizes
}

// L1 is a private MESI L1 cache attached to the shared L2, run from its
// transition table (l1Rules).
type L1 struct {
	// The chassis's write-back buffer holds lines evicted but awaiting a
	// writeback ack (MI_A / II_A): the writeback buffer / MSHR of a real L1.
	chassis.L1[l1Line, l1Txn]
	txnMods bool
	l2      coherence.NodeID
	sink    coherence.ErrorSink
	// doRecv is Recv bound once (CallAfter's handler).
	doRecv func(*coherence.Msg)
}

// NewL1 builds and registers an L1.
func NewL1(id coherence.NodeID, name string, fab *network.Fabric,
	l2 coherence.NodeID, cfg Config, sink coherence.ErrorSink) *L1 {
	l := &L1{txnMods: cfg.TxnMods, l2: l2, sink: sink}
	l.doRecv = l.Recv
	l.Init(l, id, name, fab, cfg.L1Sets, cfg.L1Ways, cfg.L1HitLat, l1Rules.Coverage(),
		func(v *l1Line) bool { return !v.state.Stable() }, l.evict, l.handleCPU)
	return l
}

// Restart returns the L1 to its just-built state for the machine's next
// run, keeping its storage. The machine's Reset calls it.
func (l *L1) Restart() {
	l.Reset()
	l.Cov.Reset()
}

// l1Table is the L1's coverage vocabulary: states by L1State, events the
// local three plus the MESI vocabulary.
var l1Table = coherence.NewTable(l1StateNames[:], localEvents, mesiMsgs...)

var (
	inv, invToL2        = l1Table.Event(coherence.MInv), l1Table.Event(coherence.MInvToL2)
	fwdGetS, fwdGetM    = l1Table.Event(coherence.MFwdGetS), l1Table.Event(coherence.MFwdGetM)
	dataE, dataS        = l1Table.Event(coherence.MDataE), l1Table.Event(coherence.MDataS)
	dataAcks, dataOwner = l1Table.Event(coherence.MDataAcks), l1Table.Event(coherence.MDataOwner)
	invAck, wbAck       = l1Table.Event(coherence.MInvAck), l1Table.Event(coherence.MWBAck)
	fwds                = []int{fwdGetS, fwdGetM}
)

// none is a cell that sends nothing.
const none = coherence.MsgInvalid

// action is what a cell of the L1's table does.
type action uint8

const (
	actHit       action = iota // complete the core operation
	actGet                     // send the Get and await its responses in the transient
	actEvict                   // send the Put; buffer the line unless it leaves for I
	actAnswer                  // answer the host request (see answer)
	actQueue                   // keep the forward until the completing Get closes
	actCollect                 // take a response to the open Get; the last completes it
	actAckAsData               // TxnMods only: take an InvAck as data-less GetS data
	actRetire                  // close the write-back
)

// A rule is one cell of the L1's table: what it does, the message it
// sends and the state the line enters.
type rule struct {
	act  action
	send coherence.MsgType
	next L1State
}

func on(st L1State, r rule, evs ...int) coherence.Row[L1State, rule] {
	return coherence.Row[L1State, rule]{St: st, Evs: evs, Do: r}
}

func hit(next L1State) rule                      { return rule{actHit, none, next} }
func get(t coherence.MsgType, next L1State) rule { return rule{actGet, t, next} }
func put(t coherence.MsgType, next L1State) rule { return rule{actEvict, t, next} }
func ack(next L1State) rule                      { return rule{actAnswer, coherence.MInvAck, next} }
func ackL2(next L1State) rule                    { return rule{actAnswer, coherence.MInvAckToL2, next} }
func copyL2(next L1State) rule                   { return rule{actAnswer, coherence.MCopyToL2, next} }
func give(next L1State) rule                     { return rule{actAnswer, coherence.MDataOwner, next} }
func queue(st L1State) rule                      { return rule{actQueue, none, st} }
func collect(next L1State) rule                  { return rule{actCollect, coherence.MUnblock, next} }

var retire = rule{actRetire, none, L1I}

// l1Rules is the L1's table in the row format of paper Table 1. A GetM's
// responses count in its transient until DataAcks says how many to expect
// (IM_A, SM_A); the last enters M. An evicting owner can be recorded as a
// sharer after answering a Fwd_GetS from MI_A, so a later GetM invalidates
// it (Inv in MI_A, II_A).
var l1Rules = coherence.NewRules("mesi.L1", l1Table, []coherence.Row[L1State, rule]{
	on(L1I, get(coherence.MGetS, L1ISd), evLoad),
	on(L1I, get(coherence.MGetM, L1IMad), evStore),
	// Raced with our PutS: the S copy was from an older epoch.
	on(L1I, ack(L1I), inv),
	on(L1I, ackL2(L1I), invToL2),
	on(L1S, hit(L1S), evLoad),
	on(L1S, get(coherence.MGetM, L1SMad), evStore),
	on(L1S, put(coherence.MPutS, L1I), evReplacement), // exact sharer tracking
	on(L1S, ack(L1I), inv),
	on(L1S, ackL2(L1I), invToL2),
	on(L1E, hit(L1E), evLoad),
	on(L1E, hit(L1M), evStore), // silent upgrade
	on(L1E, put(coherence.MPutM, L1MIa), evReplacement),
	on(L1E, copyL2(L1I), invToL2),
	on(L1E, give(L1S), fwdGetS),
	on(L1E, give(L1I), fwdGetM),
	on(L1M, hit(L1M), evLoad, evStore),
	on(L1M, put(coherence.MPutM, L1MIa), evReplacement),
	on(L1M, copyL2(L1I), invToL2),
	on(L1M, give(L1S), fwdGetS),
	on(L1M, give(L1I), fwdGetM),
	on(L1ISd, collect(L1E), dataE),
	on(L1ISd, collect(L1S), dataS, dataOwner),
	// §3.2.2: a buggy accelerator behind the guard answered a Fwd_GetS
	// with an InvAck.
	on(L1ISd, rule{actAckAsData, coherence.MUnblock, L1S}, invAck),
	on(L1ISd, ack(L1ISd), inv), // our GetS is queued
	on(L1ISd, ackL2(L1ISd), invToL2),
	on(L1IMad, collect(L1IMa), dataAcks),
	on(L1IMad, collect(L1IMad), dataOwner, invAck),
	// A sharer whose GetM is queued behind the invalidating transaction:
	// the S copy dies, the GetM stays.
	on(L1IMad, ack(L1IMad), inv),
	on(L1IMad, ackL2(L1IMad), invToL2),
	on(L1IMa, collect(L1IMa), dataOwner, invAck),
	on(L1IMa, queue(L1IMa), fwds...), // answered once the GetM completes
	on(L1SMad, collect(L1SMa), dataAcks),
	on(L1SMad, collect(L1SMad), dataOwner, invAck),
	on(L1SMad, ack(L1IMad), inv),
	on(L1SMad, ackL2(L1IMad), invToL2),
	on(L1SMa, collect(L1SMa), dataOwner, invAck),
	on(L1SMa, queue(L1SMa), fwds...),
	// The write-back buffer: the Put's WBAck is still coming.
	on(L1MIa, give(L1MIa), fwdGetS),
	on(L1MIa, give(L1IIa), fwdGetM),
	on(L1MIa, copyL2(L1IIa), invToL2),
	on(L1MIa, ack(L1MIa), inv),
	on(L1MIa, retire, wbAck),
	// Ownership already handed off: just ack.
	on(L1IIa, ack(L1IIa), inv),
	on(L1IIa, ackL2(L1IIa), invToL2),
	on(L1IIa, retire, wbAck),
})

// Recv implements coherence.Controller: a message runs the cell of the
// state its line is in, buffered or not.
func (l *L1) Recv(m *coherence.Msg) {
	if m.Type == coherence.ReqLoad || m.Type == coherence.ReqStore {
		l.handleCPU(m)
		return
	}
	ev := l1Table.Event(m.Type)
	if ev < 0 {
		l.protocolError("?", m)
		return
	}
	line, st := m.Addr.Line(), L1I
	var e *cacheset.Entry[l1Line]
	v := l.Buffered(line)
	if v == nil {
		if e = l.Lines.Peek(m.Addr); e != nil {
			v = &e.V
		}
	}
	if v != nil {
		st = v.state
	}
	l.Cov.Record(int(st), ev)
	r := l1Rules.At(st, ev)
	if r == nil {
		l.protocolError(st.String(), m)
		return
	}
	switch r.act {
	case actAnswer:
		l.answer(m, r, e, v)
	case actQueue:
		m.Keep()
		v.txn.fwds = append(v.txn.fwds, m)
	case actCollect:
		l.collect(e, r, m)
	case actAckAsData:
		// With the paper's host mods the ack is accepted as a data-less
		// response: the line fills with zeros.
		if !l.txnMods {
			l.protocolError(st.String(), m)
			return
		}
		l.sink.ReportError(coherence.ProtocolError{Where: l.Name(),
			Code: "HOST.AckAsData", Addr: m.Addr,
			Detail: "InvAck accepted as GetS data (zero block)"})
		l.completeGet(e, nil, r.next)
	case actRetire:
		l.Retire(line, v.data)
	}
}

// protocolError reports (with TxnMods) or panics (baseline) on an
// impossible transition; baselines crash because gem5-style protocols
// treat undefined transitions as fatal, which is exactly the fragility
// Crossing Guard exists to contain.
func (l *L1) protocolError(state string, m *coherence.Msg) {
	if l.txnMods {
		l.sink.ReportError(coherence.ProtocolError{
			Where: l.Name(), Code: "HOST.L1.Unexpected", Addr: m.Addr,
			Detail: fmt.Sprintf("state %s event %v", state, m.Type),
		})
		return
	}
	panic(fmt.Sprintf("%s: unexpected %v in state %s", l.Name(), m, state))
}

// send takes a message holding t from the pool and hands it to the fabric.
func (l *L1) send(t coherence.Msg) { l.Fab.Send(l.Fab.Msg(t)) }

func opEv(op *coherence.Msg) int {
	if op.Type == coherence.ReqStore {
		return evStore
	}
	return evLoad
}

func (l *L1) handleCPU(m *coherence.Msg) {
	line, ev := m.Addr.Line(), opEv(m)
	e, ok := l.Admit(line, m)
	if !ok {
		return // mid-writeback or mid-transaction; replayed when it settles
	}
	st := L1I
	if e != nil {
		st = e.V.state
	}
	l.Cov.Record(int(st), ev)
	if e == nil {
		if e = l.Allocate(line, m); e == nil {
			return // stalled; will be replayed
		}
	}
	r := l1Rules.At(st, ev)
	if r.act != actGet {
		l.hit(e, r, m)
		return
	}
	t := l.Txns.Get()
	*t = l1Txn{needed: -1, op: m, fwds: t.fwds[:0]}
	e.V.state, e.V.txn = r.next, t
	l.send(coherence.Msg{Type: r.send, Addr: line, Src: l.ID(), Dst: l.l2})
}

// hit completes core operation op on line e, which enters r's next state.
func (l *L1) hit(e *cacheset.Entry[l1Line], r *rule, op *coherence.Msg) {
	e.V.state = r.next
	if op.Type == coherence.ReqStore {
		e.V.data[op.Addr.Offset()] = op.Val
		e.V.dirty = true
		l.Respond(op, 0)
		return
	}
	l.Respond(op, e.V.data[op.Addr.Offset()])
}

// evict starts replacement of a stable victim line.
func (l *L1) evict(addr mem.Addr, v *l1Line) {
	l.Cov.Record(int(v.state), evReplacement)
	r := l1Rules.At(v.state, evReplacement)
	if r.next == L1I {
		l.send(coherence.Msg{Type: r.send, Addr: addr, Src: l.ID(), Dst: l.l2})
		l.Fab.FreeBlock(v.data)
		return
	}
	v.state = r.next
	l.Buffer(addr, v)
	l.send(coherence.Msg{Type: r.send, Addr: addr, Src: l.ID(), Dst: l.l2, Data: v.data, Dirty: v.dirty})
}

// answer sends host request m's answer r.send and moves line v, nil in I,
// to r's next state. InvAck and DataOwner go to the requestor, the rest to
// the L2; DataOwner and CopyToL2 carry the line's block, and a Fwd_GetS
// also leaves the L2 a copy.
func (l *L1) answer(m *coherence.Msg, r *rule, e *cacheset.Entry[l1Line], v *l1Line) {
	line := m.Addr.Line()
	out := coherence.Msg{Type: r.send, Addr: line, Src: l.ID(), Dst: l.l2}
	if r.send == coherence.MInvAck || r.send == coherence.MDataOwner {
		out.Dst = m.Requestor
	}
	if r.send == coherence.MDataOwner || r.send == coherence.MCopyToL2 {
		out.Data, out.Dirty = v.data, v.dirty
	}
	l.send(out)
	if m.Type == coherence.MFwdGetS {
		l.send(coherence.Msg{Type: coherence.MCopyToL2, Addr: line, Src: l.ID(), Dst: l.l2,
			Data: v.data, Dirty: v.dirty})
	}
	switch {
	case v == nil || r.next == v.state:
	case e == nil || !v.state.Stable(): // buffered, or a GetM still open
		v.state = r.next
	case r.next == L1I:
		l.Drop(e, e.V.data)
		l.Settled(line)
	default: // the owner keeps a clean S copy
		v.state, v.dirty = r.next, false
		l.Settled(line)
	}
}

// collect takes response m to line e's open Get into r's next state. A
// GetS completes on its data; a GetM counts responses until DataAcks has
// said how many to expect and every one has arrived.
func (l *L1) collect(e *cacheset.Entry[l1Line], r *rule, m *coherence.Msg) {
	if r.next.Stable() {
		l.completeGet(e, m.Data, r.next)
		return
	}
	t := e.V.txn
	switch m.Type {
	case coherence.MDataAcks:
		if m.Data != nil {
			l.Fab.FillBlock(&e.V.data, m.Data)
			e.V.dirty = false
		}
		t.needed = int(m.Acks)
	case coherence.MDataOwner:
		// Ownership hand-off from the previous owner.
		l.Fab.FillBlock(&e.V.data, m.Data)
		e.V.dirty = m.Dirty
		t.got++
	case coherence.MInvAck:
		t.got++
	}
	e.V.state = r.next
	if t.needed < 0 || t.got < t.needed {
		return
	}
	if e.V.data == nil {
		// All responses arrived but none carried data: only possible
		// when a buggy accelerator InvAcked instead of forwarding data.
		if !l.txnMods {
			panic(fmt.Sprintf("%s: GetM for %v completed without data", l.Name(), e.Addr))
		}
		l.sink.ReportError(coherence.ProtocolError{Where: l.Name(),
			Code: "HOST.AckAsData", Addr: e.Addr,
			Detail: "GetM completed with zero block"})
		e.V.data = l.Fab.CopyBlock(nil)
	}
	l.complete(e, L1M)
}

// completeGet finishes a GetS into st. A nil data — a data-less message
// from a misbehaving peer — fills the line with zeros, matching Crossing
// Guard's recovery policy of supplying zero blocks.
func (l *L1) completeGet(e *cacheset.Entry[l1Line], data *mem.Block, st L1State) {
	l.Fab.FillBlock(&e.V.data, data)
	e.V.dirty = false
	l.complete(e, st)
}

// complete closes line e's Get into stable state st: it unblocks the L2,
// then completes the core operation as a hit in st.
func (l *L1) complete(e *cacheset.Entry[l1Line], st L1State) {
	op := e.V.txn.op
	l.send(coherence.Msg{Type: coherence.MUnblock, Addr: e.Addr, Src: l.ID(), Dst: l.l2})
	l.hit(e, l1Rules.At(st, opEv(op)), op)
	l.closeTxn(e)
}

// closeTxn ends line e's Get: it replays the forwards queued while the Get
// was completing, gives the record back and wakes what waited for the line.
func (l *L1) closeTxn(e *cacheset.Entry[l1Line]) {
	t := e.V.txn
	for i, f := range t.fwds {
		l.Fab.CallAfter(0, l.doRecv, f)
		t.fwds[i] = nil
	}
	l.Txns.Put(t)
	e.V.txn = nil
	l.Settled(e.Addr)
}

// Held reports every stable valid line for invariant checks.
func (l *L1) Held(fn chassis.HeldFunc) {
	l.Lines.Visit(func(e *cacheset.Entry[l1Line]) {
		if e.V.state.Stable() && e.V.state != L1I {
			fn(e.Addr, e.V.state.Level(), e.V.data, e.V.dirty)
		}
	})
}
