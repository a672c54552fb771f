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

// L1 is a private MESI L1 cache attached to the shared L2.
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
	l.Init(l, id, name, fab, cfg.L1Sets, cfg.L1Ways, cfg.L1HitLat, NewL1Coverage(),
		func(v *l1Line) bool { return !v.state.Stable() }, l.evict, l.handleCPU)
	return l
}

// Restart returns the L1 to its just-built state for the machine's next
// run, keeping its storage. The machine's Reset calls it.
func (l *L1) Restart() {
	l.Reset()
	l.Cov.Reset()
}

// l1Unknown is the coverage state of a message Recv cannot dispatch: no
// line state applies.
const l1Unknown = int(L1IIa) + 1

// l1Table is the L1's coverage vocabulary: states by L1State plus "?",
// events the local three plus the MESI vocabulary.
var l1Table = coherence.NewTable(append(l1StateNames[:], "?"), localEvents, mesiMsgs...)

// NewL1Coverage declares the (state, event) pairs we believe reachable for
// an L1, mirroring the paper's coverage accounting (§4.1). Pairs that are
// declared but never visited are reported, not failed; visiting an
// undeclared pair is flagged as unexpected.
func NewL1Coverage() *coherence.Coverage {
	cov := coherence.NewCoverage("mesi.L1", l1Table)
	declare := func(m coherence.MsgType, states ...L1State) {
		for _, s := range states {
			cov.Declare(int(s), l1Table.Event(m))
		}
	}
	// CPU events.
	for s := L1I; s <= L1M; s++ {
		cov.Declare(int(s), evLoad, evStore)
	}
	for s := L1S; s <= L1M; s++ {
		cov.Declare(int(s), evReplacement)
	}
	// Data/ack responses. InvAck in IS_D is defensive: a buggy-accelerator
	// response surfaced by XG (tolerated only with TxnMods).
	declare(coherence.MDataE, L1ISd)
	declare(coherence.MDataS, L1ISd)
	declare(coherence.MDataAcks, L1IMad, L1SMad)
	declare(coherence.MDataOwner, L1ISd, L1IMad, L1IMa, L1SMad, L1SMa)
	declare(coherence.MInvAck, L1IMad, L1IMa, L1SMad, L1SMa, L1ISd)
	declare(coherence.MWBAck, L1MIa, L1IIa)
	// Host requests. An evicting owner can be recorded as a sharer after
	// answering a Fwd_GetS from MI_A; a later GetM then invalidates it
	// (Inv in MI_A, II_A). Forwards in IM_A/SM_A are queued while
	// completing a GetM.
	declare(coherence.MInv, L1S, L1I, L1ISd, L1IMad, L1SMad, L1MIa, L1IIa)
	declare(coherence.MFwdGetS, L1M, L1E, L1MIa, L1IMa, L1SMa)
	declare(coherence.MFwdGetM, L1M, L1E, L1MIa, L1IMa, L1SMa)
	declare(coherence.MInvToL2, L1S, L1E, L1M, L1I, L1MIa, L1SMad, L1IMad)
	return cov
}

// Recv implements coherence.Controller.
func (l *L1) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ReqLoad, coherence.ReqStore:
		l.handleCPU(m)
	case coherence.MDataE, coherence.MDataS, coherence.MDataAcks,
		coherence.MDataOwner, coherence.MInvAck, coherence.MWBAck:
		l.handleResponse(m)
	case coherence.MInv, coherence.MInvToL2, coherence.MFwdGetS, coherence.MFwdGetM:
		l.handleHostRequest(m)
	default:
		l.unexpected(l1Unknown, m)
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

func (l *L1) unexpected(state int, m *coherence.Msg) {
	l.Cov.Record(state, l1Table.Event(m.Type))
	l.protocolError(l1Table.States()[state], m)
}

// --- CPU side ---

func (l *L1) handleCPU(m *coherence.Msg) {
	line := m.Addr.Line()
	e, ok := l.Admit(line, m)
	if !ok {
		return // mid-writeback or mid-transaction; replayed when it settles
	}
	isStore := m.Type == coherence.ReqStore
	ev := evLoad
	if isStore {
		ev = evStore
	}
	if e == nil {
		l.Cov.Record(int(L1I), ev)
		if e = l.Allocate(line, m); e == nil {
			return // stalled; will be replayed
		}
		if isStore {
			l.open(e, L1IMad, m)
			l.send(coherence.Msg{Type: coherence.MGetM, Addr: line, Src: l.ID(), Dst: l.l2})
		} else {
			l.open(e, L1ISd, m)
			l.send(coherence.Msg{Type: coherence.MGetS, Addr: line, Src: l.ID(), Dst: l.l2})
		}
		return
	}
	st := e.V.state
	l.Cov.Record(int(st), ev)
	switch {
	case !isStore: // load hit in S/E/M
		l.Respond(m, e.V.data[m.Addr.Offset()])
	case st == L1M:
		e.V.data[m.Addr.Offset()] = m.Val
		e.V.dirty = true
		l.Respond(m, 0)
	case st == L1E:
		e.V.state = L1M
		e.V.data[m.Addr.Offset()] = m.Val
		e.V.dirty = true
		l.Respond(m, 0)
	case st == L1S:
		l.open(e, L1SMad, m)
		l.send(coherence.Msg{Type: coherence.MGetM, Addr: line, Src: l.ID(), Dst: l.l2})
	}
}

// open starts line e's Get for core operation op in transient state st.
func (l *L1) open(e *cacheset.Entry[l1Line], st L1State, op *coherence.Msg) {
	t := l.Txns.Get()
	*t = l1Txn{needed: -1, op: op, fwds: t.fwds[:0]}
	e.V.state, e.V.txn = st, t
}

// evict starts replacement of a stable victim line.
func (l *L1) evict(addr mem.Addr, v *l1Line) {
	l.Cov.Record(int(v.state), evReplacement)
	switch v.state {
	case L1S:
		// Exact sharer tracking: notify the L2, fire-and-forget.
		l.send(coherence.Msg{Type: coherence.MPutS, Addr: addr, Src: l.ID(), Dst: l.l2})
		l.Fab.FreeBlock(v.data)
	case L1E, L1M:
		v.state = L1MIa
		l.Buffer(addr, v)
		l.send(coherence.Msg{Type: coherence.MPutM, Addr: addr, Src: l.ID(), Dst: l.l2,
			Data: v.data, Dirty: v.dirty})
	default:
		panic(fmt.Sprintf("%s: evicting line in state %v", l.Name(), v.state))
	}
}

// send takes a message holding t from the pool and hands it to the fabric.
func (l *L1) send(t coherence.Msg) { l.Fab.Send(l.Fab.Msg(t)) }

// --- responses (data, acks, writeback acks) ---

func (l *L1) handleResponse(m *coherence.Msg) {
	line := m.Addr.Line()
	if m.Type == coherence.MWBAck {
		wl := l.Buffered(line)
		if wl == nil {
			l.unexpected(int(L1I), m)
			return
		}
		l.Cov.Record(int(wl.state), l1Table.Event(m.Type))
		l.Retire(line, wl.data)
		return
	}
	e := l.Lines.Peek(m.Addr)
	if e == nil {
		l.unexpected(int(L1I), m)
		return
	}
	st := e.V.state
	l.Cov.Record(int(st), l1Table.Event(m.Type))
	switch st {
	case L1ISd:
		switch m.Type {
		case coherence.MDataE:
			l.completeGet(e, m.Data, L1E)
		case coherence.MDataS, coherence.MDataOwner:
			l.completeGet(e, m.Data, L1S)
		case coherence.MInvAck:
			// A buggy accelerator behind Crossing Guard answered a
			// Fwd_GetS with an InvAck; with the paper's host mods we
			// accept the ack as a (data-less) response.
			if !l.txnMods {
				l.protocolError(st.String(), m)
				return
			}
			l.sink.ReportError(coherence.ProtocolError{Where: l.Name(),
				Code: "HOST.AckAsData", Addr: m.Addr,
				Detail: "InvAck accepted as GetS data (zero block)"})
			l.completeGet(e, nil, L1S)
		default:
			l.protocolError(st.String(), m)
		}
	case L1IMad, L1SMad:
		switch m.Type {
		case coherence.MDataAcks:
			if m.Data != nil {
				l.Fab.FillBlock(&e.V.data, m.Data)
				e.V.dirty = false
			}
			e.V.txn.needed = m.Acks
			l.maybeCompleteGetM(e, m.Addr)
		case coherence.MDataOwner:
			// Ownership hand-off from the previous owner.
			l.Fab.FillBlock(&e.V.data, m.Data)
			e.V.dirty = m.Dirty
			e.V.txn.got++
			l.maybeCompleteGetM(e, m.Addr)
		case coherence.MInvAck:
			e.V.txn.got++
			l.maybeCompleteGetM(e, m.Addr)
		default:
			l.protocolError(st.String(), m)
		}
	case L1IMa, L1SMa:
		switch m.Type {
		case coherence.MInvAck:
			e.V.txn.got++
			l.maybeCompleteGetM(e, m.Addr)
		case coherence.MDataOwner:
			// Owner hand-off whose "expect 1 response" notice from the
			// L2 arrived first.
			l.Fab.FillBlock(&e.V.data, m.Data)
			e.V.dirty = m.Dirty
			e.V.txn.got++
			l.maybeCompleteGetM(e, m.Addr)
		default:
			l.protocolError(st.String(), m)
		}
	default:
		l.protocolError(st.String(), m)
	}
}

// completeGet finishes a GetS transaction. A nil data — a data-less
// message from a misbehaving peer — fills the line with zeros, matching
// Crossing Guard's recovery policy of supplying zero blocks.
func (l *L1) completeGet(e *cacheset.Entry[l1Line], data *mem.Block, st L1State) {
	op := e.V.txn.op
	e.V.state = st
	l.Fab.FillBlock(&e.V.data, data)
	e.V.dirty = false
	l.send(coherence.Msg{Type: coherence.MUnblock, Addr: e.Addr, Src: l.ID(), Dst: l.l2})
	l.Respond(op, e.V.data[op.Addr.Offset()])
	l.closeTxn(e)
}

// maybeCompleteGetM finishes a GetM once the data and every expected
// response have arrived.
func (l *L1) maybeCompleteGetM(e *cacheset.Entry[l1Line], addr mem.Addr) {
	// Move to the "got data" transients for coverage fidelity.
	t := e.V.txn
	if t.needed >= 0 {
		switch e.V.state {
		case L1IMad:
			e.V.state = L1IMa
		case L1SMad:
			e.V.state = L1SMa
		}
	}
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
	op := t.op
	e.V.state = L1M
	e.V.dirty = true
	e.V.data[op.Addr.Offset()] = op.Val
	l.send(coherence.Msg{Type: coherence.MUnblock, Addr: e.Addr, Src: l.ID(), Dst: l.l2})
	l.Respond(op, 0)
	l.closeTxn(e)
}

// --- host requests (invalidations, forwards) ---

func (l *L1) handleHostRequest(m *coherence.Msg) {
	line := m.Addr.Line()
	if wl := l.Buffered(line); wl != nil {
		l.hostReqOnWB(line, wl, m)
		return
	}
	e := l.Lines.Peek(m.Addr)
	st := L1I
	if e != nil {
		st = e.V.state
	}
	l.Cov.Record(int(st), l1Table.Event(m.Type))
	switch m.Type {
	case coherence.MInv:
		switch st {
		case L1S:
			l.Drop(e, e.V.data)
			l.sendInvAck(m)
			l.Settled(line)
		case L1I, L1ISd:
			// Raced with our PutS or our queued GetS; the S copy (if
			// any) is from an older epoch. Ack and carry on.
			l.sendInvAck(m)
		case L1IMad, L1SMad:
			// We were a sharer whose GetM is queued behind the
			// invalidating transaction; drop the stale S copy.
			if st == L1SMad {
				e.V.state = L1IMad
			}
			l.sendInvAck(m)
		default:
			l.protocolError(st.String(), m)
		}
	case coherence.MInvToL2:
		switch st {
		case L1S:
			l.Drop(e, e.V.data)
			l.sendInvAckToL2(line)
			l.Settled(line)
		case L1E, L1M:
			l.copyToL2(line, &e.V)
			l.Drop(e, e.V.data)
			l.Settled(line)
		case L1I:
			l.sendInvAckToL2(line)
		case L1SMad, L1IMad:
			// Recall of a line we are also trying to upgrade; our S
			// copy dies, our GetM stays queued.
			if st == L1SMad {
				e.V.state = L1IMad
			}
			l.sendInvAckToL2(line)
		default:
			l.protocolError(st.String(), m)
		}
	case coherence.MFwdGetS:
		switch st {
		case L1E, L1M:
			l.dataOwner(line, m.Requestor, &e.V)
			l.copyToL2(line, &e.V)
			e.V.state = L1S
			e.V.dirty = false
			l.Settled(line)
		case L1IMa, L1SMa:
			m.Keep()
			e.V.txn.fwds = append(e.V.txn.fwds, m)
		default:
			l.protocolError(st.String(), m)
		}
	case coherence.MFwdGetM:
		switch st {
		case L1E, L1M:
			l.dataOwner(line, m.Requestor, &e.V)
			l.Drop(e, e.V.data)
			l.Settled(line)
		case L1IMa, L1SMa:
			m.Keep()
			e.V.txn.fwds = append(e.V.txn.fwds, m)
		default:
			l.protocolError(st.String(), m)
		}
	}
}

// hostReqOnWB handles host requests that race with an outstanding
// writeback (the line lives in the writeback buffer).
func (l *L1) hostReqOnWB(line mem.Addr, wl *l1Line, m *coherence.Msg) {
	l.Cov.Record(int(wl.state), l1Table.Event(m.Type))
	switch m.Type {
	case coherence.MFwdGetS:
		if wl.state != L1MIa {
			l.protocolError(wl.state.String(), m)
			return
		}
		l.dataOwner(line, m.Requestor, wl)
		l.copyToL2(line, wl)
		// Remain MI_A: the WBAck for our Put is still coming.
	case coherence.MFwdGetM:
		if wl.state != L1MIa {
			l.protocolError(wl.state.String(), m)
			return
		}
		l.dataOwner(line, m.Requestor, wl)
		wl.state = L1IIa
	case coherence.MInvToL2:
		if wl.state != L1MIa {
			// II_A: ownership already handed off; just ack.
			l.sendInvAckToL2(line)
			return
		}
		l.copyToL2(line, wl)
		wl.state = L1IIa
	case coherence.MInv:
		// We answered a Fwd_GetS while evicting, so the L2 recorded us
		// as a sharer; a later writer now invalidates that stale entry.
		l.sendInvAck(m)
	default:
		l.protocolError(wl.state.String(), m)
	}
}

func (l *L1) sendInvAck(m *coherence.Msg) {
	l.send(coherence.Msg{Type: coherence.MInvAck, Addr: m.Addr.Line(), Src: l.ID(), Dst: m.Requestor})
}

func (l *L1) sendInvAckToL2(line mem.Addr) {
	l.send(coherence.Msg{Type: coherence.MInvAckToL2, Addr: line, Src: l.ID(), Dst: l.l2})
}

// dataOwner hands v's data to the requestor of a forward.
func (l *L1) dataOwner(line mem.Addr, r coherence.NodeID, v *l1Line) {
	l.send(coherence.Msg{Type: coherence.MDataOwner, Addr: line, Src: l.ID(),
		Dst: r, Data: v.data, Dirty: v.dirty})
}

// copyToL2 sends the L2 a copy of v's data.
func (l *L1) copyToL2(line mem.Addr, v *l1Line) {
	l.send(coherence.Msg{Type: coherence.MCopyToL2, Addr: line, Src: l.ID(), Dst: l.l2,
		Data: v.data, Dirty: v.dirty})
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
