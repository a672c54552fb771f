package core

import (
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// mesiShim makes Crossing Guard appear to the inclusive MESI host as an
// ordinary private L1 (paper §3.2.2): it issues GetS/GetInstr/GetM and
// counts data + invalidation acks; it answers Inv (ack to the requestor),
// InvToL2 (inclusion recall), Fwd_GetS (data to requestor + copy to L2),
// and Fwd_GetM (data hand-off); and it forwards PutS because this host
// tracks exact sharers.
type mesiShim struct {
	g  *Guard
	l2 coherence.NodeID
}

// NewMESIGuard builds a Crossing Guard instance attached to a MESI host.
func NewMESIGuard(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	accel, l2 coherence.NodeID, cfg Config, sink coherence.ErrorSink) *Guard {
	g := newGuard(id, name, eng, fab, accel, cfg, sink)
	g.shim = &mesiShim{g: g, l2: l2}
	return g
}

func (s *mesiShim) send(t coherence.Msg) { s.g.send(t) }

// suppressPutS: the MESI host keeps exact sharers, so PutS is forwarded.
func (s *mesiShim) suppressPutS() bool { return false }

func (s *mesiShim) putS(addr mem.Addr) {
	s.send(coherence.Msg{Type: coherence.MPutS, Addr: addr, Src: s.g.id, Dst: s.l2})
}

// mesiGets maps a get kind to the MESI request that asks for it.
var mesiGets = [...]coherence.MsgType{
	GetShared: coherence.MGetS, GetSharedOnly: coherence.MGetInstr, GetExcl: coherence.MGetM}

func (s *mesiShim) get(addr mem.Addr, kind GetKind) {
	s.g.workFor(addr).work.get = hostGet{open: true, kind: kind, needed: -1}
	s.send(coherence.Msg{Type: mesiGets[kind], Addr: addr, Src: s.g.id, Dst: s.l2})
}

// put sends the one-part writeback: the data rides on the MPutM.
func (s *mesiShim) put(addr mem.Addr, data *mem.Block, dirty bool) {
	s.send(coherence.Msg{Type: coherence.MPutM, Addr: addr, Src: s.g.id, Dst: s.l2,
		Data: data, Dirty: dirty})
}

func (s *mesiShim) recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.MDataE, coherence.MDataS, coherence.MDataAcks,
		coherence.MDataOwner, coherence.MInvAck:
		s.handleResponse(m)
	case coherence.MWBAck:
		s.g.retirePut(m.Addr.Line())
	case coherence.MInv:
		s.handleInv(m)
	case coherence.MInvToL2:
		s.handleInvToL2(m)
	case coherence.MFwdGetS:
		s.handleFwd(m, false)
	case coherence.MFwdGetM:
		s.handleFwd(m, true)
	default:
		panic(fmt.Sprintf("%s: unexpected host message %v", s.g.name, m))
	}
}

// --- own requests ---

func (s *mesiShim) handleResponse(m *coherence.Msg) {
	addr := m.Addr.Line()
	t := s.g.getAt(addr)
	if t == nil {
		return
	}
	complete := false
	switch m.Type {
	case coherence.MDataE:
		s.g.fab.FillBlock(&t.data, m.Data)
		t.excl = true
		complete = true
	case coherence.MDataS:
		s.g.fab.FillBlock(&t.data, m.Data)
		complete = true
	case coherence.MDataAcks:
		if m.Data != nil {
			s.g.fab.FillBlock(&t.data, m.Data)
		}
		t.needed = m.Acks
		t.excl = true
	case coherence.MDataOwner:
		if m.Data != nil {
			s.g.fab.FillBlock(&t.data, m.Data)
			t.dirty = m.Dirty
		}
		t.got++
		if t.kind != GetExcl {
			// An owner hand-off satisfies a GetS directly.
			complete = true
		}
	case coherence.MInvAck:
		t.got++
		if t.kind != GetExcl {
			// A GetS answered by a lone InvAck: only another (buggy)
			// guard could produce this; tolerate with a zero block.
			complete = true
		}
	}
	if !complete && (t.needed < 0 || t.got < t.needed) {
		return
	}
	if t.data == nil {
		// granted reads no data as a zero block.
		s.g.sink.ReportError(coherence.ProtocolError{Where: s.g.name,
			Code: "XG.HostAnomaly", Addr: addr, Detail: "request completed without data"})
	}
	s.send(coherence.Msg{Type: coherence.MUnblock, Addr: addr, Src: s.g.id, Dst: s.l2})
	level := GrantS
	switch {
	case t.kind == GetExcl:
		level = GrantM
	case t.excl:
		level = GrantE
	}
	s.g.finishGet(addr, level, t.dirty)
}

// --- host-initiated requests ---

// handleInv: the L2 invalidates us as a sharer on another L1's GetM; the
// ack goes directly to the requestor.
func (s *mesiShim) handleInv(m *coherence.Msg) {
	addr := m.Addr.Line()
	r := m.Requestor
	if s.g.putAt(addr) != nil {
		// We believed we owned the block and are writing it back while
		// the L2 believes we are a sharer: ack and let the Put resolve.
		s.invAck(addr, r)
		return
	}
	view, _ := s.g.accelHolds(addr)
	switch view {
	case viewNone:
		s.g.SnoopsFiltered++
		s.invAck(addr, r)
	default:
		s.g.startRecall(addr, view, recallCont{kind: mesiInv, req: r})
	}
}

// handleInvToL2: inclusion recall; the response goes to the L2 (either an
// ack or a data copy — the L2 accepts both).
func (s *mesiShim) handleInvToL2(m *coherence.Msg) {
	addr := m.Addr.Line()
	if p := s.g.putAt(addr); p != nil {
		// Our writeback is in flight; answer the recall from its data.
		s.copyToL2(addr, p.data, p.dirty)
		return
	}
	view, entry := s.g.accelHolds(addr)
	switch {
	case view == viewNone:
		s.g.SnoopsFiltered++
		s.invAckToL2(addr)
	case view == viewS && entry != nil && entry.copy != nil:
		// Read-only block owned by the guard: the accelerator's S copy
		// still dies, but the trusted copy answers.
		s.g.recallThenServe(entry, recallCont{kind: mesiInvToL2Copy, req: s.l2})
	default:
		s.g.startRecall(addr, view, recallCont{kind: mesiInvToL2, req: s.l2})
	}
}

// handleFwd: we are the recorded owner; the requestor needs data, and for
// Fwd_GetS the L2 needs a downgrade copy too.
func (s *mesiShim) handleFwd(m *coherence.Msg, getM bool) {
	addr := m.Addr.Line()
	r := m.Requestor
	if p := s.g.putAt(addr); p != nil {
		s.dataOwner(addr, r, p.data, p.dirty)
		if !getM {
			s.copyToL2(addr, p.data, p.dirty)
		}
		return
	}
	view, entry := s.g.accelHolds(addr)
	switch {
	case view == viewS && entry != nil && entry.copy != nil:
		// Read-only owned block: serve from the trusted copy. On a
		// Fwd_GetS the accelerator may keep its S copy (we downgrade to
		// a plain sharer); on Fwd_GetM its copy must die first.
		if !getM {
			s.g.SnoopsFiltered++
			s.dataOwner(addr, r, entry.copy, entry.dirty)
			s.copyToL2(addr, entry.copy, entry.dirty)
			// No longer the owner; the copy is moot.
			s.g.grant(entry, entry.accel, GrantS, false, nil, entry.dirty)
			return
		}
		s.g.recallThenServe(entry, recallCont{kind: mesiFwdCopy, req: r})
	case view == viewE || view == viewM || view == viewUnknown:
		s.g.startRecall(addr, view, recallCont{kind: mesiFwd, getM: getM, req: r})
	default:
		// The host believes we own a block the guard knows the
		// accelerator does not have: answer with zero data to keep the
		// host alive and report.
		s.g.violation("XG.G2a", "host forwarded to a non-owner guard", addr)
		s.dataOwner(addr, r, &zeroBlock, false)
		if !getM {
			s.copyToL2(addr, &zeroBlock, false)
		}
	}
}

// What a host-initiated request was doing when it had to recall the block
// first.
const (
	mesiInv         uint8 = iota + 1 // handleInv
	mesiInvToL2                      // handleInvToL2
	mesiInvToL2Copy                  // handleInvToL2 on a read-only block the guard owns
	mesiFwd                          // handleFwd
	mesiFwdCopy                      // handleFwd, Fwd_GetM on a read-only block the guard owns
)

// resume answers the host request behind c now that the recall is over.
func (s *mesiShim) resume(addr mem.Addr, c recallCont, data *mem.Block, dirty, _ bool) {
	r := c.req
	switch c.kind {
	case mesiInv, mesiInvToL2:
		if data != nil {
			// The accelerator answered with a writeback; the data goes to
			// the L2, which on an Inv acks the requestor on the
			// accelerator's behalf (host modification, §3.2.2).
			s.copyToL2(addr, data, dirty)
		} else if c.kind == mesiInv {
			s.invAck(addr, r)
		} else {
			s.invAckToL2(addr)
		}
	case mesiInvToL2Copy:
		s.copyToL2(addr, c.copy, c.dirty)
	case mesiFwd:
		if data == nil {
			// Transactional mode: the accelerator InvAcked a forward
			// that demanded data. Forward the ack; the modified host
			// treats acks and data interchangeably (§3.2.2) and the
			// L2 still receives a (zero) downgrade copy so its
			// transaction can close.
			s.invAck(addr, r)
			if !c.getM {
				s.copyToL2(addr, &zeroBlock, false)
			}
			return
		}
		s.dataOwner(addr, r, data, dirty)
		if !c.getM {
			s.copyToL2(addr, data, dirty)
		}
	case mesiFwdCopy:
		s.dataOwner(addr, r, c.copy, c.dirty)
	}
}

func (s *mesiShim) invAck(addr mem.Addr, r coherence.NodeID) {
	s.send(coherence.Msg{Type: coherence.MInvAck, Addr: addr, Src: s.g.id, Dst: r})
}

func (s *mesiShim) invAckToL2(addr mem.Addr) {
	s.send(coherence.Msg{Type: coherence.MInvAckToL2, Addr: addr, Src: s.g.id, Dst: s.l2})
}

func (s *mesiShim) dataOwner(addr mem.Addr, r coherence.NodeID, data *mem.Block, dirty bool) {
	s.send(coherence.Msg{Type: coherence.MDataOwner, Addr: addr, Src: s.g.id, Dst: r,
		Data: data, Dirty: dirty})
}

func (s *mesiShim) copyToL2(addr mem.Addr, data *mem.Block, dirty bool) {
	s.send(coherence.Msg{Type: coherence.MCopyToL2, Addr: addr, Src: s.g.id, Dst: s.l2,
		Data: data, Dirty: dirty})
}
