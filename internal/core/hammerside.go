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

	gets map[mem.Addr]*hGet
	puts map[mem.Addr]*hPut
}

type hGet struct {
	kind       GetKind
	got        int
	dataCount  int
	shared     bool
	cacheData  *mem.Block
	cacheDirty bool
	memData    *mem.Block
}

type hPut struct {
	data     *mem.Block
	dirty    bool
	lost     bool // ownership moved via Fwd_GetM while the Put was in flight
	accelPut bool // initiated by an accelerator Put (vs. guard-initiated relinquish)
}

// NewHammerGuard builds a Crossing Guard instance attached to a Hammer
// host. responses must equal the directory's peer count (each peer plus
// the speculative memory response). The caller must register the guard as
// a directory peer.
func NewHammerGuard(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	accel, dir coherence.NodeID, responses int, cfg Config, sink coherence.ErrorSink) *Guard {
	g := newGuard(id, name, eng, fab, accel, cfg, sink)
	g.shim = &hammerShim{
		g: g, dir: dir, responses: responses,
		gets: make(map[mem.Addr]*hGet),
		puts: make(map[mem.Addr]*hPut),
	}
	return g
}

func (s *hammerShim) send(m *coherence.Msg) { s.g.send(m) }

func (s *hammerShim) outstanding() int { return len(s.gets) + len(s.puts) }

func (s *hammerShim) busy(addr mem.Addr) bool {
	_, g := s.gets[addr]
	_, p := s.puts[addr]
	return g || p
}

// suppressPutS: hammer evicts shared blocks silently (§2.1).
func (s *hammerShim) suppressPutS() bool { return true }

func (s *hammerShim) putS(mem.Addr) {} // never called; PutS is suppressed

func (s *hammerShim) get(addr mem.Addr, kind GetKind) {
	s.gets[addr] = &hGet{kind: kind}
	ty := coherence.HGetS
	switch kind {
	case GetSharedOnly:
		ty = coherence.HGetSOnly
	case GetExcl:
		ty = coherence.HGetM
	}
	s.send(&coherence.Msg{Type: ty, Addr: addr, Src: s.g.id, Dst: s.dir})
}

func (s *hammerShim) put(addr mem.Addr, data *mem.Block, dirty bool) {
	s.puts[addr] = &hPut{data: data, dirty: dirty, accelPut: true}
	s.send(&coherence.Msg{Type: coherence.HPut, Addr: addr, Src: s.g.id, Dst: s.dir})
}

// relinquish starts a guard-initiated writeback (ownership give-up after
// serving a Fwd_GetS on the accelerator's behalf, §3.2.1).
func (s *hammerShim) relinquish(addr mem.Addr, data *mem.Block, dirty bool) {
	if _, busy := s.puts[addr]; busy {
		return // already writing back
	}
	s.puts[addr] = &hPut{data: data, dirty: dirty}
	s.send(&coherence.Msg{Type: coherence.HPut, Addr: addr, Src: s.g.id, Dst: s.dir})
}

// drain returns an owned line to the host during quarantine recovery:
// the same guard-initiated writeback as relinquish (the fenced
// accelerator never sees an ack for it).
func (s *hammerShim) drain(addr mem.Addr, data *mem.Block, dirty bool) {
	s.relinquish(addr, data, dirty)
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
	t, ok := s.gets[addr]
	if !ok {
		s.g.sink.ReportError(coherence.ProtocolError{Where: s.g.name,
			Code: "XG.HostAnomaly", Addr: addr, Detail: "response with no open get"})
		return
	}
	switch m.Type {
	case coherence.HData:
		t.dataCount++
		if t.cacheData == nil && m.Data != nil {
			t.cacheData = m.Data.Copy()
			t.cacheDirty = m.Dirty
		}
		t.shared = true
	case coherence.HAck:
		if m.Shared {
			t.shared = true
		}
	case coherence.HMemData:
		t.memData = m.Data.Copy()
	}
	t.got++
	if t.got < s.responses {
		return
	}
	delete(s.gets, addr)
	s.g.wake(addr)
	data := t.memData
	dirty := false
	if t.cacheData != nil {
		data, dirty = t.cacheData, t.cacheDirty
	}
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
	s.send(&coherence.Msg{Type: coherence.HUnblock, Addr: addr, Src: s.g.id, Dst: s.dir,
		Shared: tookShared})
	s.g.granted(addr, level, data, dirty)
}

// --- writebacks ---

func (s *hammerShim) handleWBAck(m *coherence.Msg) {
	addr := m.Addr.Line()
	p, ok := s.puts[addr]
	if !ok {
		s.g.sink.ReportError(coherence.ProtocolError{Where: s.g.name,
			Code: "XG.HostAnomaly", Addr: addr, Detail: "WBAck with no open put"})
		return
	}
	dirty := p.dirty && !p.lost
	// The writeback record is finished with its block: it leaves as is.
	s.send(&coherence.Msg{Type: coherence.HWBData, Addr: addr, Src: s.g.id, Dst: s.dir,
		Data: p.data, Dirty: dirty})
	delete(s.puts, addr)
	s.g.wake(addr)
	if p.accelPut {
		s.g.putDone(addr)
	}
}

func (s *hammerShim) handleNack(m *coherence.Msg) {
	addr := m.Addr.Line()
	p, ok := s.puts[addr]
	if !ok {
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
	delete(s.puts, addr)
	s.g.wake(addr)
	if p.accelPut {
		s.g.putDone(addr)
	}
}

// --- forwards (the host pulling blocks out of the accelerator) ---

func (s *hammerShim) handleForward(m *coherence.Msg, getM bool) {
	addr := m.Addr.Line()
	r := m.Requestor

	// A writeback in flight answers the forward directly (MI/OI-style);
	// once a Fwd_GetM has taken ownership away, later forwards are acked
	// like a cache in II.
	if p, busy := s.puts[addr]; busy {
		if p.lost {
			s.ack(addr, r, false)
			return
		}
		s.send(&coherence.Msg{Type: coherence.HData, Addr: addr, Src: s.g.id, Dst: r,
			Data: p.data.Copy(), Dirty: p.dirty, Shared: true})
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
		s.g.startRecall(addr, viewS, r, func(data *mem.Block, dirty bool, viaPut bool) {
			if data != nil {
				// Transactional mode forwarding a (suspicious) writeback:
				// the requestor tolerates extra data under TxnMods.
				s.send(&coherence.Msg{Type: coherence.HData, Addr: addr, Src: s.g.id,
					Dst: r, Data: data.Copy(), Dirty: dirty, Shared: true})
				return
			}
			s.ack(addr, r, false)
		})
	case viewE, viewM:
		s.recallOwner(addr, view, r, getM)
	default: // viewUnknown (Transactional)
		s.g.startRecall(addr, viewUnknown, r, func(data *mem.Block, dirty bool, viaPut bool) {
			if data == nil {
				s.ack(addr, r, false)
				return
			}
			s.send(&coherence.Msg{Type: coherence.HData, Addr: addr, Src: s.g.id, Dst: r,
				Data: data.Copy(), Dirty: dirty, Shared: true})
			if !getM {
				// The accelerator supplied owner data on a Fwd_GetS; the
				// interface has no O state, so relinquish (§3.2.1). This
				// also covers the Put/Inv race, whose Put the guard
				// consumed rather than forwarded.
				s.relinquish(addr, data.Copy(), dirty)
			}
		})
	}
}

func (s *hammerShim) serveFromCopy(addr mem.Addr, entry *blockEntry, r coherence.NodeID, getM bool) {
	copyData, copyDirty := entry.copy.Copy(), entry.dirty
	if !getM {
		s.g.SnoopsFiltered++
		s.send(&coherence.Msg{Type: coherence.HData, Addr: addr, Src: s.g.id, Dst: r,
			Data: copyData, Dirty: copyDirty, Shared: true})
		return
	}
	// Fwd_GetM: the accelerator's S copy must die before the writer may
	// proceed; then the trusted copy answers.
	s.g.startRecall(addr, viewS, r, func(_ *mem.Block, _ bool, _ bool) {
		s.send(&coherence.Msg{Type: coherence.HData, Addr: addr, Src: s.g.id, Dst: r,
			Data: copyData, Dirty: copyDirty, Shared: true})
	})
}

func (s *hammerShim) recallOwner(addr mem.Addr, view viewState, r coherence.NodeID, getM bool) {
	s.g.startRecall(addr, view, r, func(data *mem.Block, dirty bool, viaPut bool) {
		if data == nil {
			data, dirty = mem.Zero(), true
		}
		s.send(&coherence.Msg{Type: coherence.HData, Addr: addr, Src: s.g.id, Dst: r,
			Data: data.Copy(), Dirty: dirty, Shared: true})
		if !getM {
			// No O state in the interface: give ownership back to the
			// directory (§3.2.1); required equally when the data came
			// from a consumed racing Put.
			s.relinquish(addr, data.Copy(), dirty)
		}
	})
}

func (s *hammerShim) ack(addr mem.Addr, r coherence.NodeID, shared bool) {
	s.send(&coherence.Msg{Type: coherence.HAck, Addr: addr, Src: s.g.id, Dst: r, Shared: shared})
}
