package hammer

import (
	"fmt"

	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// dirTxn is a line's open transaction, held by value in its dirLine: the
// cell that closes it, takeUnblock for a Get and takeWBData for a
// writeback, and the requestor that must send it. The zero value (closer
// openGet) is no transaction.
type dirTxn struct {
	closer    dirAction
	requestor coherence.NodeID
}

// dirLine is the directory's per-line record: hammer keeps no sharer
// information, only an owner pointer (used to validate writebacks and to
// know when memory may be stale).
type dirLine struct {
	owner coherence.NodeID
	txn   dirTxn
}

func (l *dirLine) busy() bool { return l.txn.closer != openGet }

// Directory is the Hammer directory + memory controller. It serializes
// transactions per line and broadcasts every request to all peer caches,
// and runs from its transition table (dirRules).
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
	spare     []*dirLine // records of the lines a Restart forgot
	waiting   coherence.LineQueues
	replaying *coherence.Msg // message being replayed from the queue head

	// fillMemData and doBroadcast are readMemData and broadcast bound once
	// (SendAfter's fill hook, CallAfter's handler).
	fillMemData func(*coherence.Msg)
	doBroadcast func(*coherence.Msg)

	// Cov records (state, event) coverage.
	Cov *coherence.Coverage
}

// NewDirectory builds and registers the directory over memory.
func NewDirectory(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	memory *mem.Memory, cfg Config, sink coherence.ErrorSink) *Directory {
	d := &Directory{
		id: id, name: name, eng: eng, fab: fab, cfg: cfg, sink: sink,
		memory: memory,
		lines:  make(map[mem.Addr]*dirLine),
		Cov:    dirRules.Coverage(),
	}
	d.fillMemData = d.readMemData
	d.doBroadcast = d.broadcast
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

// dirAction is what a cell of the directory's table does. The first three
// take a request on an idle line.
type dirAction uint8

const (
	openGet     dirAction = iota // open the Get and broadcast it after the lookup latency
	ackPut                       // ack the owner's Put and await its WBData; Nack anyone else's
	nackPut                      // Nack the Put: the line has no owner to write it back
	queueReq                     // queue the request behind the open transaction
	takeWBData                   // close the open writeback with its data
	takeUnblock                  // close the open Get
)

var (
	dirReqs = []int{dirTable.Event(coherence.HGetS), dirTable.Event(coherence.HGetSOnly),
		dirTable.Event(coherence.HGetM), dirTable.Event(coherence.HPut)}
	dirGets, dirPut       = dirReqs[:3], dirReqs[3:]
	dirWBData, dirUnblock = []int{dirTable.Event(coherence.HWBData)}, []int{dirTable.Event(coherence.HUnblock)}
)

// dirRules is the directory's table, keyed on its coverage state. Every
// other message is a protocol error. A writeback is open only on an owned
// line, since only the owner's Put opens one and only its WBData clears
// the owner, so WBData has no Unowned+busy cell.
var dirRules = coherence.NewRules("hammer.dir", dirTable, []coherence.Row[int, dirAction]{
	{St: dirUnowned, Evs: dirGets, Do: openGet},
	{St: dirUnowned, Evs: dirPut, Do: nackPut},
	{St: dirOwned, Evs: dirGets, Do: openGet},
	{St: dirOwned, Evs: dirPut, Do: ackPut},
	{St: dirUnownedBusy, Evs: dirReqs, Do: queueReq},
	{St: dirUnownedBusy, Evs: dirUnblock, Do: takeUnblock},
	{St: dirOwnedBusy, Evs: dirReqs, Do: queueReq},
	{St: dirOwnedBusy, Evs: dirWBData, Do: takeWBData},
	{St: dirOwnedBusy, Evs: dirUnblock, Do: takeUnblock},
})

// AddPeer registers a cache for broadcast. Call once per cache before
// simulation starts.
func (d *Directory) AddPeer(id coherence.NodeID) { d.peers = append(d.peers, id) }

// ID implements coherence.Controller.
func (d *Directory) ID() coherence.NodeID { return d.id }

// Name implements coherence.Controller.
func (d *Directory) Name() string { return d.name }

func (d *Directory) lineFor(addr mem.Addr) *dirLine {
	if l, ok := d.lines[addr]; ok {
		return l
	}
	var l *dirLine
	if n := len(d.spare); n > 0 {
		l, d.spare = d.spare[n-1], d.spare[:n-1]
	} else {
		l = new(dirLine)
	}
	*l = dirLine{owner: coherence.NodeNone}
	d.lines[addr] = l
	return l
}

// Restart returns the directory to its just-built state for the machine's
// next run, keeping its storage: no line known, nothing queued, coverage
// zero. The machine's Reset calls it.
func (d *Directory) Restart() {
	for _, l := range d.lines {
		d.spare = append(d.spare, l)
	}
	clear(d.lines)
	d.waiting.Reset()
	d.replaying = nil
	d.Cov.Reset()
}

// covState is the line's coverage state.
func (d *Directory) covState(l *dirLine) int {
	k := dirUnowned
	if l.owner != coherence.NodeNone {
		k = dirOwned
	}
	if l.busy() {
		k += dirUnownedBusy // the busy states follow the idle ones
	}
	return k
}

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

// Recv implements coherence.Controller: a message runs the cell of its
// line's coverage state, once the per-line FIFO lets it.
func (d *Directory) Recv(m *coherence.Msg) {
	addr := m.Addr.Line()
	l := d.lineFor(addr)
	k, ev := d.covState(l), dirTable.Event(m.Type)
	d.Cov.Record(k, ev)
	do := dirRules.At(k, ev)
	if do == nil {
		d.protocolError(dirTable.States()[k], m)
		return
	}
	act := *do
	if act <= nackPut && d.waiting.Waiting(addr) && m != d.replaying {
		// Strict per-line FIFO: nothing may overtake queued requests
		// (a Get overtaking a queued Put would read stale memory).
		act = queueReq
	}
	switch act {
	case openGet:
		l.txn = dirTxn{takeUnblock, m.Src}
		d.fab.CallAfter(d.cfg.DirLat, d.doBroadcast, m)
	case ackPut:
		if l.owner == m.Src {
			l.txn = dirTxn{takeWBData, m.Src}
			d.fab.SendAfter(d.cfg.DirLat,
				d.fab.Msg(coherence.Msg{Type: coherence.HWBAck, Addr: addr, Src: d.id, Dst: m.Src}), nil)
			return
		}
		fallthrough
	case nackPut:
		// Put from a non-owner: a legitimate race (ownership moved
		// while the Put was in flight) or a stray accelerator Put.
		d.send(coherence.Msg{Type: coherence.HNack, Addr: addr, Src: d.id, Dst: m.Src})
		d.pop(addr)
	case queueReq:
		d.waiting.Push(addr, m)
	case takeWBData, takeUnblock:
		if l.txn != (dirTxn{act, m.Src}) {
			d.protocolError(dirTable.States()[k], m)
			return
		}
		switch {
		case act == takeWBData:
			if m.Dirty && m.Data != nil {
				d.memory.Write(addr, m.Data)
			}
			l.owner = coherence.NodeNone
		case !m.Shared:
			// The requestor took an owned state (E or M).
			l.owner = m.Src
		}
		l.txn = dirTxn{}
		d.pop(addr)
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
		d.send(coherence.Msg{Type: fwd, Addr: addr, Src: d.id, Dst: p, Requestor: m.Src})
	}
	d.fab.SendAfter(d.cfg.MemLat,
		d.fab.Msg(coherence.Msg{Type: coherence.HMemData, Addr: addr, Src: d.id, Dst: m.Src}), d.fillMemData)
}

// readMemData is the speculative memory read: it fills HMemData when the
// memory latency has elapsed, so a writeback landing in between is seen.
func (d *Directory) readMemData(m *coherence.Msg) { d.memory.ReadInto(m.Addr, m.OwnData()) }

// send takes a message holding t from the pool and hands it to the fabric.
func (d *Directory) send(t coherence.Msg) { d.fab.Send(d.fab.Msg(t)) }

// pop replays the line's oldest queued request, which goes back to the
// pool when its Recv returns unless it queued again.
func (d *Directory) pop(addr mem.Addr) {
	next := d.waiting.Pop(addr)
	if next == nil {
		return
	}
	// Process synchronously so no same-tick arrival can cut in front.
	prev := d.replaying
	d.replaying = next
	d.fab.BeginRecv(next)
	d.Recv(next)
	d.fab.EndRecv(next)
	d.replaying = prev
}

// OpenTxns reports the lines with a transaction open (none at quiesce).
func (d *Directory) OpenTxns() int {
	n := 0
	for _, l := range d.lines {
		if l.busy() {
			n++
		}
	}
	return n
}

// Outstanding reports open transactions and queued requests.
func (d *Directory) Outstanding() int { return d.OpenTxns() + d.waiting.Len() }

// Owner reports the recorded owner of a line (for audits).
func (d *Directory) Owner(addr mem.Addr) coherence.NodeID {
	if l, ok := d.lines[addr.Line()]; ok {
		return l.owner
	}
	return coherence.NodeNone
}

// Coverage returns the directory's (state, event) coverage.
func (d *Directory) Coverage() *coherence.Coverage { return d.Cov }

// Line reports addr's recorded owner and memory's copy of the line: the
// directory keeps an owner pointer per line and no data, and is not
// inclusive.
func (d *Directory) Line(addr mem.Addr) (coherence.NodeID, *mem.Block, bool) {
	return d.Owner(addr), d.memory.Peek(addr), true
}

// Held reports no lines: the directory holds no data.
func (d *Directory) Held(chassis.HeldFunc) {}

// VisitOwned reports every line with a recorded owner.
func (d *Directory) VisitOwned(fn func(addr mem.Addr, owner coherence.NodeID)) {
	for a, l := range d.lines {
		if l.owner != coherence.NodeNone {
			fn(a, l.owner)
		}
	}
}
