package hammer

import (
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// dirTxnKind labels an open directory transaction.
type dirTxnKind int

const (
	dirGet dirTxnKind = iota
	dirWB
)

type dirTxn struct {
	kind      dirTxnKind
	requestor coherence.NodeID
}

// dirLine is the directory's per-line record: hammer keeps no sharer
// information, only an owner pointer (used to validate writebacks and to
// know when memory may be stale).
type dirLine struct {
	owner coherence.NodeID
	txn   *dirTxn
}

// Directory is the Hammer directory + memory controller. It serializes
// transactions per line and broadcasts every request to all peer caches.
type Directory struct {
	id    coherence.NodeID
	name  string
	eng   *sim.Engine
	fab   *network.Fabric
	cfg   Config
	sink  coherence.ErrorSink
	peers []coherence.NodeID // every cache in the system (including XG)

	memory    *mem.Memory
	lines     map[mem.Addr]*dirLine
	waiting   map[mem.Addr][]*coherence.Msg
	replaying *coherence.Msg // message being replayed from the queue head

	// fillMemData is readMemData bound once (SendAfter's fill hook).
	fillMemData func(*coherence.Msg)

	// Cov records (state, event) coverage.
	Cov *coherence.Coverage
	// NacksSent counts Put/ownership races resolved by Nack.
	NacksSent uint64
}

// NewDirectory builds and registers the directory over memory.
func NewDirectory(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	memory *mem.Memory, cfg Config, sink coherence.ErrorSink) *Directory {
	d := &Directory{
		id: id, name: name, eng: eng, fab: fab, cfg: cfg, sink: sink,
		memory:  memory,
		lines:   make(map[mem.Addr]*dirLine),
		waiting: make(map[mem.Addr][]*coherence.Msg),
		Cov:     NewDirectoryCoverage(),
	}
	d.fillMemData = d.readMemData
	fab.Register(d)
	return d
}

// Directory coverage states: owned or not, with or without a
// transaction open.
const (
	dirUnowned = iota
	dirOwned
	dirUnownedBusy
	dirOwnedBusy
)

// dirTable is the directory's coverage vocabulary. Recv records before it
// dispatches, so the events are the whole Hammer vocabulary, not only
// what caches send a directory.
var dirTable = coherence.NewTable(
	[]string{dirUnowned: "Unowned", dirOwned: "Owned", dirUnownedBusy: "Unowned+busy", dirOwnedBusy: "Owned+busy"}, nil,
	coherence.HGetS, coherence.HGetSOnly, coherence.HGetM, coherence.HPut, coherence.HWBData, coherence.HUnblock,
	coherence.HFwdGetS, coherence.HFwdGetSOnly, coherence.HFwdGetM, coherence.HWBAck, coherence.HNack,
	coherence.HMemData, coherence.HData, coherence.HAck)

// NewDirectoryCoverage declares reachable (state, event) pairs.
func NewDirectoryCoverage() *coherence.Coverage {
	cov := coherence.NewCoverage("hammer.dir", dirTable)
	var events []int
	for _, m := range []coherence.MsgType{coherence.HGetS, coherence.HGetSOnly, coherence.HGetM,
		coherence.HPut, coherence.HWBData, coherence.HUnblock} {
		events = append(events, dirTable.Event(m))
	}
	cov.DeclareAll([]int{dirUnowned, dirOwned, dirUnownedBusy, dirOwnedBusy}, events)
	return cov
}

// AddPeer registers a cache for broadcast. Call once per cache before
// simulation starts.
func (d *Directory) AddPeer(id coherence.NodeID) { d.peers = append(d.peers, id) }

// Peers returns the broadcast set size.
func (d *Directory) Peers() int { return len(d.peers) }

// ID implements coherence.Controller.
func (d *Directory) ID() coherence.NodeID { return d.id }

// Name implements coherence.Controller.
func (d *Directory) Name() string { return d.name }

func (d *Directory) lineFor(addr mem.Addr) *dirLine {
	if l, ok := d.lines[addr]; ok {
		return l
	}
	l := &dirLine{owner: coherence.NodeNone}
	d.lines[addr] = l
	return l
}

// covState is the line's coverage state.
func (d *Directory) covState(l *dirLine) int {
	owned, busy := l.owner != coherence.NodeNone, l.txn != nil
	switch {
	case owned && busy:
		return dirOwnedBusy
	case owned:
		return dirOwned
	case busy:
		return dirUnownedBusy
	}
	return dirUnowned
}

func (d *Directory) stateName(l *dirLine) string { return dirTable.States()[d.covState(l)] }

func (d *Directory) protocolError(state string, m *coherence.Msg) {
	if d.cfg.TxnMods {
		d.sink.ReportError(coherence.ProtocolError{
			Where: d.name, Code: "HOST.Dir.Unexpected", Addr: m.Addr,
			Detail: fmt.Sprintf("state %s event %v", state, m.Type),
		})
		return
	}
	panic(fmt.Sprintf("%s: unexpected %v in state %s", d.name, m, state))
}

// Recv implements coherence.Controller.
func (d *Directory) Recv(m *coherence.Msg) {
	addr := m.Addr.Line()
	l := d.lineFor(addr)
	d.Cov.Record(d.covState(l), dirTable.Event(m.Type))
	switch m.Type {
	case coherence.HGetS, coherence.HGetSOnly, coherence.HGetM:
		if l.txn != nil || (len(d.waiting[addr]) > 0 && m != d.replaying) {
			// Strict per-line FIFO: nothing may overtake queued requests
			// (a Get overtaking a queued Put would read stale memory).
			d.waiting[addr] = append(d.waiting[addr], m)
			return
		}
		l.txn = &dirTxn{kind: dirGet, requestor: m.Src}
		d.eng.Schedule(d.cfg.DirLat, func() { d.broadcast(m) })
	case coherence.HPut:
		if l.txn != nil || (len(d.waiting[addr]) > 0 && m != d.replaying) {
			d.waiting[addr] = append(d.waiting[addr], m)
			return
		}
		if l.owner != m.Src {
			// Put from a non-owner: a legitimate race (ownership moved
			// while the Put was in flight) or a stray accelerator Put.
			d.NacksSent++
			d.send(&coherence.Msg{Type: coherence.HNack, Addr: addr, Src: d.id, Dst: m.Src})
			d.pop(addr)
			return
		}
		l.txn = &dirTxn{kind: dirWB, requestor: m.Src}
		d.fab.SendAfter(d.cfg.DirLat,
			&coherence.Msg{Type: coherence.HWBAck, Addr: addr, Src: d.id, Dst: m.Src}, nil)
	case coherence.HWBData:
		if l.txn == nil || l.txn.kind != dirWB || l.txn.requestor != m.Src {
			d.protocolError(d.stateName(l), m)
			return
		}
		if m.Dirty && m.Data != nil {
			d.memory.Write(addr, m.Data)
		}
		l.owner = coherence.NodeNone
		l.txn = nil
		d.pop(addr)
	case coherence.HUnblock:
		if l.txn == nil || l.txn.kind != dirGet || l.txn.requestor != m.Src {
			d.protocolError(d.stateName(l), m)
			return
		}
		if !m.Shared {
			// The requestor took an owned state (E or M).
			l.owner = m.Src
		}
		l.txn = nil
		d.pop(addr)
	default:
		d.protocolError(d.stateName(l), m)
	}
}

// broadcast forwards a Get to every peer except the requestor and issues
// the speculative memory read.
func (d *Directory) broadcast(m *coherence.Msg) {
	addr := m.Addr.Line()
	var fwd coherence.MsgType
	switch m.Type {
	case coherence.HGetS:
		fwd = coherence.HFwdGetS
	case coherence.HGetSOnly:
		fwd = coherence.HFwdGetSOnly
	case coherence.HGetM:
		fwd = coherence.HFwdGetM
	}
	for _, p := range d.peers {
		if p == m.Src {
			continue
		}
		d.send(&coherence.Msg{Type: fwd, Addr: addr, Src: d.id, Dst: p, Requestor: m.Src})
	}
	d.fab.SendAfter(d.cfg.MemLat,
		&coherence.Msg{Type: coherence.HMemData, Addr: addr, Src: d.id, Dst: m.Src}, d.fillMemData)
}

// readMemData is the speculative memory read: it fills HMemData when the
// memory latency has elapsed, so a writeback landing in between is seen.
func (d *Directory) readMemData(m *coherence.Msg) { m.Data = d.memory.Read(m.Addr) }

func (d *Directory) send(m *coherence.Msg) { d.fab.Send(m) }

func (d *Directory) pop(addr mem.Addr) {
	q := d.waiting[addr]
	if len(q) == 0 {
		return
	}
	next := q[0]
	if len(q) == 1 {
		delete(d.waiting, addr)
	} else {
		d.waiting[addr] = q[1:]
	}
	// Process synchronously so no same-tick arrival can cut in front.
	prev := d.replaying
	d.replaying = next
	d.Recv(next)
	d.replaying = prev
}

// Outstanding reports open transactions and queued requests.
func (d *Directory) Outstanding() int {
	n := 0
	for _, q := range d.waiting {
		n += len(q)
	}
	for _, l := range d.lines {
		if l.txn != nil {
			n++
		}
	}
	return n
}

// Owner reports the recorded owner of a line (for audits).
func (d *Directory) Owner(addr mem.Addr) coherence.NodeID {
	if l, ok := d.lines[addr.Line()]; ok {
		return l.owner
	}
	return coherence.NodeNone
}

// Memory exposes the backing store for checkers.
func (d *Directory) Memory() *mem.Memory { return d.memory }

// VisitOwned reports every line with a recorded owner.
func (d *Directory) VisitOwned(fn func(addr mem.Addr, owner coherence.NodeID)) {
	for a, l := range d.lines {
		if l.owner != coherence.NodeNone {
			fn(a, l.owner)
		}
	}
}
