package core

import (
	"slices"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
)

// The guard's host half (§3.2): to the host, the guard is one more private
// cache. What a host protocol differs in is data, a hostProto: the messages
// that ask for a block, write one back and evict a shared copy, and the
// table of how the guard takes the host's forwards, invalidations,
// responses and acks (hammerside.go, mesiside.go). A host message's row key
// is picked as an accelerator message's is (rowKey): the first of what its
// line has open — a host writeback, one whose ownership a Fwd_GetM took, a
// host get — with a row for it, else the guard's view of the accelerator's
// copy (accelHolds). The rows are the host half's coverage declaration. A
// message with no row is nothing a correct host sends: it is recorded as an
// undeclared visit, reported and sunk (hostStray).

// hostKey is a host table's row key: a view of the accelerator's copy,
// where S with a trusted copy is one of its own, or what the line has open
// toward the host.
type hostKey int

const (
	hNone, hS, hE, hM, hUnknown = hostKey(viewNone), hostKey(viewS), hostKey(viewE), hostKey(viewM), hostKey(viewUnknown)
	hSCopy                      = hUnknown + 1 // S, and the guard keeps a trusted copy (Guarantee 0b)
	keyPut                      = hUnknown + 2 // an open host writeback
	keyLost                     = hUnknown + 3 // an open host writeback whose ownership a Fwd_GetM took
	keyGet                      = hUnknown + 4 // an open host get
)

// hostKeys are the keys recvHost looks for, in order, before the view.
var hostKeys = [...]hostKey{keyPut, keyLost, keyGet}

var hostNames = slices.Concat(viewNames, []string{"S+copy", "HostPut", "HostPutLost", "HostGet"})

func (k hostKey) String() string { return hostNames[k] }

// open reports whether l has open the work key k names. l may be nil.
func (k hostKey) open(l *line) bool {
	if k == keyGet {
		return hasGet(l)
	}
	return hasPut(l) && l.work.put.lost == (k == keyLost)
}

// hostProto is a host protocol as the guard speaks it.
type hostProto struct {
	gets [3]coherence.MsgType // the request of each GetKind
	// put opens a writeback, with its data when putData is set (MESI;
	// Hammer's follows the WBAck). putS evicts a shared copy, none where
	// the host evicts S silently and the guard drops PutS (§2.1).
	put, putS coherence.MsgType
	putData   bool
	rules     *coherence.Rules[hostKey, hostRule]
}

// none is a cell's message it does not send.
const none = coherence.MsgInvalid

// hostAct is what a cell of a host table does.
type hostAct uint8

const (
	doAnswer  hostAct = iota // answer without the accelerator: from the writeback's data or the trusted copy, else ack
	doRecall                 // recall the block, then answer with what the accelerator gave back
	doServe                  // recall the accelerator's S copy, then answer from the trusted copy
	doCollect                // take a response into the open get; the last unblocks the home and grants
	doRetire                 // close the writeback, sending its data first unless send is none
)

// hostRule is a cell of a host table. A cell that must recall the block
// first leaves itself as the recall's continuation, and resume runs it with
// the accelerator's answer.
type hostRule struct {
	act hostAct
	// send is the answer that carries data and ack the one that does not:
	// a cell without send always acks, one without ack answers zeros where
	// it has no data. Answers go to the requestor, the L2's own messages
	// (MCopyToL2, MInvAckToL2) home. A collecting cell's send is its Unblock.
	send, ack coherence.MsgType
	l2        bool // MESI Fwd_GetS: the L2 gets a copy of the data too, zeros without
	shared    bool // Hammer: the Ack, or a shared grant's Unblock, says a copy stays
	// yields gives ownership up with the answer: a writeback in flight loses
	// it, the trusted copy goes, and owner data a recall brought back goes
	// home with a Put (§3.2.1: the interface has no O state).
	yields bool
	code   string // a violation the message is reported as first
	detail string
}

// askHost opens addr's host get of kind and sends its request.
func (g *Guard) askHost(addr mem.Addr, kind GetKind) {
	g.workFor(addr).work.get = hostGet{open: true, kind: kind, needed: g.responses}
	g.send(coherence.Msg{Type: g.host.gets[kind], Addr: addr, Src: g.id, Dst: g.home})
}

// recvHost runs a host message through its cell of the host's table.
func (g *Guard) recvHost(m *coherence.Msg) {
	rules := g.host.rules
	addr, ev := m.Addr.Line(), rules.Vocab.Event(m.Type)
	view, e := g.accelHolds(addr)
	l := g.lines[addr]
	k := rowKey(rules, ev, l, view, hostKeys[:])
	g.hostCov.Record(int(k), ev)
	r := rules.At(k, ev)
	if r == nil {
		g.hostStray(m)
		return
	}
	if r.code != "" {
		g.violation(r.code, r.detail, addr)
	}
	req := g.to(r.ack, m.Requestor) // whom the cell answers: the L2, for an inclusion recall
	switch r.act {
	case doAnswer:
		var data *mem.Block
		dirty := false
		switch k {
		case keyPut:
			p := &l.work.put
			data, dirty, p.lost = p.data, p.dirty, r.yields
		case hSCopy:
			data, dirty = e.copy, e.dirty
		}
		if k <= hSCopy && r.code == "" {
			g.SnoopsFiltered++
		}
		g.answer(addr, r, req, data, dirty)
		if k == hSCopy && r.yields {
			g.grant(e, e.accel, GrantS, false, nil, e.dirty)
		}
	case doRecall:
		expect := viewState(view)
		if view == hSCopy {
			expect = viewS // the accelerator's copy
		}
		g.startRecall(addr, expect, recallCont{do: r, req: req})
	case doServe:
		// A read-only block the guard owns: the accelerator's S copy dies
		// first, then the cell serves the trusted copy. The residency is gone
		// by then, so the continuation takes a copy of its own (resume).
		g.startRecall(addr, viewS, recallCont{do: r, req: req, copy: g.fab.CopyBlock(e.copy), dirty: e.dirty})
	case doCollect:
		g.collect(l, r, m)
	case doRetire:
		if r.send != none {
			// Once a Fwd_GetM has taken ownership, the data is clean.
			p := &l.work.put
			g.send(coherence.Msg{Type: r.send, Addr: addr, Src: g.id, Dst: g.home,
				Data: p.data, Dirty: p.dirty && !p.lost})
		}
		g.retirePut(addr)
	}
}

// resume runs the cell that recalled addr, now that the recall is over:
// data is the accelerator's answer (nil when it held none), which a
// serving cell replaces with the trusted copy its continuation kept.
func (g *Guard) resume(addr mem.Addr, c recallCont, data *mem.Block, dirty bool) {
	r := c.do
	if r.act == doServe {
		data, dirty = c.copy, c.dirty
	}
	g.answer(addr, r, c.req, data, dirty)
	if r.yields && data != nil {
		// This also covers the Put/Inv race, whose Put the guard consumed
		// rather than forwarded.
		g.relinquish(addr, data, dirty)
	}
	g.fab.FreeBlock(c.copy)
}

// answer sends r's answer about addr to req, with data when it has some.
func (g *Guard) answer(addr mem.Addr, r *hostRule, req coherence.NodeID, data *mem.Block, dirty bool) {
	ty := r.send
	switch {
	case data != nil && ty != none: // the data answer
	case r.ack != none:
		ty, data, dirty = r.ack, nil, false
	default:
		data = &zeroBlock
	}
	// Hammer's Data always says shared, as its caches' does.
	g.send(coherence.Msg{Type: ty, Addr: addr, Src: g.id, Dst: g.to(ty, req), Data: data, Dirty: dirty,
		Shared: r.shared || ty == coherence.HData})
	if r.l2 {
		if data == nil {
			data, dirty = &zeroBlock, false
		}
		g.send(coherence.Msg{Type: coherence.MCopyToL2, Addr: addr, Src: g.id, Dst: g.home, Data: data, Dirty: dirty})
	}
}

// to is where an answer of type ty to requestor req goes.
func (g *Guard) to(ty coherence.MsgType, req coherence.NodeID) coherence.NodeID {
	if ty == coherence.MCopyToL2 || ty == coherence.MInvAckToL2 {
		return g.home
	}
	return req
}

// collect takes response m into l's open get. The one that completes it
// unblocks the home with r's send and grants the line: M for GetM, and for
// a read E unless it was read-only or a response said another cache keeps
// a copy.
func (g *Guard) collect(l *line, r *hostRule, m *coherence.Msg) {
	t := &l.work.get
	done := false // m completes a read by itself (MESI)
	switch m.Type {
	case coherence.HData:
		// The first owner's data wins, over memory's too.
		if !t.fromCache && m.Data != nil {
			g.fab.FillBlock(&t.data, m.Data)
			t.fromCache, t.dirty = true, m.Dirty
		}
		t.shared = true
	case coherence.HAck:
		t.shared = t.shared || m.Shared
	case coherence.HMemData:
		if !t.fromCache {
			g.fab.FillBlock(&t.data, m.Data)
		}
	case coherence.MDataE, coherence.MDataS:
		g.fab.FillBlock(&t.data, m.Data)
		t.shared, done = m.Type == coherence.MDataS, true
	case coherence.MDataAcks: // how many InvAcks complete the GetM
		if m.Data != nil {
			g.fab.FillBlock(&t.data, m.Data)
		}
		t.needed = int(m.Acks)
	case coherence.MDataOwner:
		// An owner's hand-off completes a read.
		if m.Data != nil {
			g.fab.FillBlock(&t.data, m.Data)
			t.dirty = m.Dirty
		}
		t.shared, done = true, t.kind != GetExcl
	case coherence.MInvAck:
		// So does a lone InvAck, which only a buggy guard sends: the read is
		// granted with zeros.
		t.shared, done = true, t.kind != GetExcl
	}
	if m.Type != coherence.MDataAcks {
		t.got++
	}
	if !done && (t.needed < 0 || t.got < t.needed) {
		return
	}
	addr := l.addr
	if t.data == nil {
		// granted reads no data as a zero block.
		g.sink.ReportError(coherence.ProtocolError{Where: g.name,
			Code: "XG.HostAnomaly", Addr: addr, Detail: "request completed without data"})
	}
	level, dirty := GrantE, t.dirty
	switch {
	case t.kind == GetExcl:
		level = GrantM
	case t.kind == GetSharedOnly || t.shared:
		level, dirty = GrantS, false // the owner, if any, keeps the responsibility
	}
	g.send(coherence.Msg{Type: r.send, Addr: addr, Src: g.id, Dst: g.home, Shared: r.shared && level == GrantS})
	// The get retires and the line is granted the block it collected.
	data := t.data
	l.work.get = hostGet{}
	g.closed(l)
	g.granted(addr, level, data, dirty)
	g.fab.FreeBlock(data)
}

// hostStray reports a host message its table has no cell for: a response
// with no get open, a WBAck with no writeback open, or a Nack of neither,
// which is sunk (§3.2.1).
func (g *Guard) hostStray(m *coherence.Msg) {
	code, detail := "XG.HostAnomaly", "response with no open get"
	switch m.Type {
	case coherence.HWBAck, coherence.MWBAck:
		detail = "WBAck with no open put"
	case coherence.HNack:
		code, detail = "XG.HostNack", "unexpected Nack sunk"
	}
	g.sink.ReportError(coherence.ProtocolError{Where: g.name, Code: code, Addr: m.Addr.Line(), Detail: detail})
}
