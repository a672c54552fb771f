package core

import (
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// hammerShim makes Crossing Guard appear to the Hammer-like host as an
// ordinary private L1/L2 cache (paper §3.2.1): it issues GetS/GetSOnly/
// GetM and counts broadcast responses; it answers every forward; it runs
// two-part writebacks; and, because the accelerator interface has no O
// state, an owner hit by Fwd_GetS is resolved by invalidating the
// accelerator, forwarding the data to the requestor, and relinquishing
// ownership with a Put (the paper's merged-GetS handling).
type hammerShim struct {
	g         *Guard
	dir       coherence.NodeID
	responses int // peers + speculative memory data
}

// NewHammerGuard builds a Crossing Guard instance attached to a Hammer
// host. responses must equal the directory's peer count (each peer plus
// the speculative memory response). The caller must register the guard as
// a directory peer.
func NewHammerGuard(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	accel, dir coherence.NodeID, responses int, cfg Config, sink coherence.ErrorSink) *Guard {
	g := newGuard(id, name, eng, fab, accel, cfg, sink)
	g.shim = &hammerShim{g: g, dir: dir, responses: responses}
	return g
}

func (s *hammerShim) send(t coherence.Msg) { s.g.send(t) }

// suppressPutS: hammer evicts shared blocks silently (§2.1).
func (s *hammerShim) suppressPutS() bool { return true }

func (s *hammerShim) putS(mem.Addr) {} // never called; PutS is suppressed

// hammerGets maps a get kind to the hammer request that asks for it.
var hammerGets = [...]coherence.MsgType{
	GetShared: coherence.HGetS, GetSharedOnly: coherence.HGetSOnly, GetExcl: coherence.HGetM}

func (s *hammerShim) get(addr mem.Addr, kind GetKind) {
	s.g.workFor(addr).work.get = hostGet{open: true, kind: kind, needed: s.responses}
	s.send(coherence.Msg{Type: hammerGets[kind], Addr: addr, Src: s.g.id, Dst: s.dir})
}

// put opens the two-part writeback: the data follows the directory's
// HWBAck (handleWBAck).
func (s *hammerShim) put(addr mem.Addr, _ *mem.Block, _ bool) {
	s.send(coherence.Msg{Type: coherence.HPut, Addr: addr, Src: s.g.id, Dst: s.dir})
}

func (s *hammerShim) recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.HFwdGetS, coherence.HFwdGetSOnly:
		s.handleForward(m, false)
	case coherence.HFwdGetM:
		s.handleForward(m, true)
	case coherence.HData, coherence.HAck, coherence.HMemData:
		s.handleResponse(m)
	case coherence.HWBAck:
		s.handleWBAck(m)
	case coherence.HNack:
		s.handleNack(m)
	default:
		panic(fmt.Sprintf("%s: unexpected host message %v", s.g.name, m))
	}
}

// --- own requests ---

func (s *hammerShim) handleResponse(m *coherence.Msg) {
	addr := m.Addr.Line()
	t := s.g.getAt(addr)
	if t == nil {
		return
	}
	switch m.Type {
	case coherence.HData:
		// The first owner's data wins, over memory's too.
		if !t.fromCache && m.Data != nil {
			s.g.fab.FillBlock(&t.data, m.Data)
			t.fromCache, t.dirty = true, m.Dirty
		}
		t.shared = true
	case coherence.HAck:
		if m.Shared {
			t.shared = true
		}
	case coherence.HMemData:
		if !t.fromCache {
			s.g.fab.FillBlock(&t.data, m.Data)
		}
	}
	t.got++
	if t.got < t.needed {
		return
	}
	dirty := t.dirty
	var level Grant
	tookShared := false
	switch {
	case t.kind == GetExcl:
		level = GrantM
	case t.kind == GetSharedOnly || t.shared:
		level = GrantS
		tookShared = true
		dirty = false // the owner (if any) retains responsibility
	default:
		level = GrantE
	}
	s.send(coherence.Msg{Type: coherence.HUnblock, Addr: addr, Src: s.g.id, Dst: s.dir,
		Shared: tookShared})
	s.g.finishGet(addr, level, dirty)
}

// --- writebacks ---

func (s *hammerShim) handleWBAck(m *coherence.Msg) {
	addr := m.Addr.Line()
	if p := s.g.putAt(addr); p != nil {
		s.send(coherence.Msg{Type: coherence.HWBData, Addr: addr, Src: s.g.id, Dst: s.dir,
			Data: p.data, Dirty: p.dirty && !p.lost})
	}
	s.g.retirePut(addr)
}

func (s *hammerShim) handleNack(m *coherence.Msg) {
	addr := m.Addr.Line()
	p := s.g.putAt(addr)
	if p == nil {
		// An unexpected Nack: sink it and report (paper §3.2.1).
		s.g.sink.ReportError(coherence.ProtocolError{Where: s.g.name,
			Code: "XG.HostNack", Addr: addr, Detail: "unexpected Nack sunk"})
		return
	}
	if !p.lost {
		// The directory rejected a Put the guard could not validate
		// (Transactional mode forwarding a stray accelerator Put).
		s.g.violation("XG.G1a", "host rejected writeback (non-owner Put)", addr)
	}
	s.g.retirePut(addr)
}

// --- forwards (the host pulling blocks out of the accelerator) ---

func (s *hammerShim) handleForward(m *coherence.Msg, getM bool) {
	addr := m.Addr.Line()
	r := m.Requestor

	// A writeback in flight answers the forward directly (MI/OI-style);
	// once a Fwd_GetM has taken ownership away, later forwards are acked
	// like a cache in II.
	if p := s.g.putAt(addr); p != nil {
		if p.lost {
			s.ack(addr, r, false)
			return
		}
		s.data(addr, r, p.data, p.dirty)
		if getM {
			p.lost = true
		}
		return
	}

	view, entry := s.g.accelHolds(addr)
	switch view {
	case viewNone:
		s.g.SnoopsFiltered++
		s.ack(addr, r, false)
	case viewS:
		if entry != nil && entry.copy != nil {
			// Read-only block owned by the guard (Guarantee 0b copy):
			// answer from the trusted copy.
			s.serveFromCopy(addr, entry, r, getM)
			return
		}
		if !getM {
			// A shared copy does not conflict with Fwd_GetS.
			s.g.SnoopsFiltered++
			s.ack(addr, r, true)
			return
		}
		s.g.startRecall(addr, viewS, recallCont{kind: hammerSharer, req: r})
	default: // viewE, viewM, or viewUnknown (Transactional)
		s.g.startRecall(addr, view, recallCont{kind: hammerMayOwn, getM: getM, req: r})
	}
}

// What handleForward was doing when it had to recall the block first.
const (
	hammerSharer    uint8 = iota + 1 // Fwd_GetM to a block held in S
	hammerMayOwn                     // forward to a block held in E or M, or to a Transactional guard
	hammerServeCopy                  // Fwd_GetM to a read-only block the guard owns (serveFromCopy)
)

// resume answers requestor c.req's forward now that the recall is over.
func (s *hammerShim) resume(addr mem.Addr, c recallCont, data *mem.Block, dirty, _ bool) {
	r := c.req
	switch c.kind {
	case hammerSharer:
		if data != nil {
			// Transactional mode forwarding a (suspicious) writeback:
			// the requestor tolerates extra data under TxnMods.
			s.data(addr, r, data, dirty)
			return
		}
		s.ack(addr, r, false)
	case hammerMayOwn:
		if data == nil {
			// Only an Unknown view resolves without data: the core answers
			// for an owner that supplied none (hostAnswer).
			s.ack(addr, r, false)
			return
		}
		s.data(addr, r, data, dirty)
		if !c.getM {
			// The accelerator supplied owner data on a Fwd_GetS; the
			// interface has no O state, so give ownership back to the
			// directory (§3.2.1). This also covers the Put/Inv race,
			// whose Put the guard consumed rather than forwarded.
			s.g.relinquish(addr, data, dirty)
		}
	case hammerServeCopy:
		s.data(addr, r, c.copy, c.dirty)
	}
}

func (s *hammerShim) serveFromCopy(addr mem.Addr, entry *line, r coherence.NodeID, getM bool) {
	if !getM {
		s.g.SnoopsFiltered++
		s.data(addr, r, entry.copy, entry.dirty)
		return
	}
	// Fwd_GetM: the accelerator's S copy must die before the writer may
	// proceed; then the trusted copy answers.
	s.g.recallThenServe(entry, recallCont{kind: hammerServeCopy, req: r})
}

func (s *hammerShim) ack(addr mem.Addr, r coherence.NodeID, shared bool) {
	s.send(coherence.Msg{Type: coherence.HAck, Addr: addr, Src: s.g.id, Dst: r, Shared: shared})
}

// data answers requestor r's forward with a copy of blk, as an owner.
func (s *hammerShim) data(addr mem.Addr, r coherence.NodeID, blk *mem.Block, dirty bool) {
	s.send(coherence.Msg{Type: coherence.HData, Addr: addr, Src: s.g.id, Dst: r,
		Data: blk, Dirty: dirty, Shared: true})
}
