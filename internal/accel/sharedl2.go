package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// sl2TxnKind labels open transactions at the shared accelerator L2.
type sl2TxnKind int

const (
	sl2Fetch    sl2TxnKind = iota // Crossing Guard Get outstanding
	sl2LocalInv                   // gathering invalidation acks from inner L1s
	sl2Recall                     // answering a Crossing Guard Invalidate
)

// sl2Txn is the open transaction on one line, a record of the L2's Txns
// the line points to while it is busy.
type sl2Txn struct {
	kind      sl2TxnKind
	requestor coherence.NodeID // inner L1 being served
	wantM     bool
	// wait is the inner L1s whose invalidation response is outstanding. A
	// fetch has none of its own, so while pendingInvAck is set these are
	// the acks the guard's Invalidate waits for.
	wait coherence.NodeSet
	// pendingInvAck: a Crossing Guard Invalidate arrived mid-fetch; once
	// local copies are gone, ack the guard and keep waiting for (fresh)
	// data.
	pendingInvAck bool
	granted       bool // the fetch's grant already arrived
	// keep: the weak model's M grant, which leaves sibling copies alone
	// and records the requestor as one more sharer, never as the owner.
	keep bool
}

// sl2Line is the payload of one shared-L2 line. data is the L2's own
// block, taken from the machine's block list when the grant lands and
// given back when the line leaves the cache; txn is nil while it is idle.
type sl2Line struct {
	host    AState // grant level held from Crossing Guard (S/E/M)
	data    *mem.Block
	dirty   bool // modified relative to the grant
	sharers coherence.NodeSet
	owner   coherence.NodeID
	txn     *sl2Txn
}

func (v *sl2Line) busy() bool { return v.txn != nil }

// open starts line v's transaction on a record whose wait set keeps its
// storage from one transaction to the next.
func (l *SharedL2) open(v *sl2Line, kind sl2TxnKind, requestor coherence.NodeID, wantM bool) {
	t := l.txns.Get()
	*t = sl2Txn{kind: kind, requestor: requestor, wantM: wantM, wait: t.wait[:0]}
	v.txn = t
}

// closeTxn leaves line v idle.
func (l *SharedL2) closeTxn(v *sl2Line) {
	l.txns.Put(v.txn)
	v.txn = nil
}

// ackKey names one inner L1's invalidation ack for one line.
type ackKey struct {
	addr mem.Addr
	node coherence.NodeID
}

// SharedL2 is the shared inclusive accelerator L2 of the two-level
// design; it is the only agent that speaks the Crossing Guard interface.
type SharedL2 struct {
	id   coherence.NodeID
	name string
	fab  *network.Fabric
	cfg  Config
	xg   coherence.NodeID
	// epoch is the guard epoch the hierarchy operates under, stamped on
	// every message sent, internal X* traffic too (0 until the first
	// device reset).
	epoch uint32

	// The guard side of the interface — how a line is put or recalled
	// back, the writebacks in flight — and the queues of inner-L1
	// requests waiting for a line or a way.
	evictions map[mem.Addr]struct{} // writebacks to the guard awaiting WBAck
	// invs holds (and keeps) a guard Invalidate that arrived during a
	// line's local transaction; it is serviced with priority as soon as
	// the line goes idle, ahead of queued requests (whose own guard Gets
	// may be deferred until this very Invalidate is answered).
	invs      coherence.LineQueues
	waiting   coherence.LineQueues
	stalled   []*coherence.Msg // misses waiting for a recalled way, kept until replayed
	full      []*coherence.Msg // misses that found every way busy, kept until a line goes idle
	replaying *coherence.Msg   // message being replayed from the queue head
	// doRecv is Recv bound once (a CallAfter handler), and doReplay Recv
	// for a stalled Get, which replays as the head of its line's queue:
	// whatever queued for the line arrived after it.
	doRecv, doReplay func(*coherence.Msg)

	tab   *coherence.Rules[int, sl2Action] // the cells Recv runs
	cache *cacheset.Cache[sl2Line]
	txns  coherence.Txns[sl2Txn]
	// ignoreAck counts the XInvAcks still to come from an inner L1 whose
	// Put crossed our Inv and already served as its response; the line may
	// have left the cache by the time one arrives.
	ignoreAck map[ackKey]int
	// spare is the sharer-set storage of lines that have left the cache,
	// for the next lines fetched.
	spare coherence.NodeSets
	// doServe is serve bound once (CallAfter's handler).
	doServe func(*coherence.Msg)

	Cov *coherence.Coverage
	// LocalSharing counts data requests satisfied without crossing to
	// the host (the benefit of Figure 2d).
	LocalSharing uint64
}

// NewSharedL2 builds and registers the shared accelerator L2.
func NewSharedL2(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	xg coherence.NodeID, cfg Config) *SharedL2 {
	l := &SharedL2{}
	l.init(l, sl2Rules, id, name, fab, xg, cfg)
	return l
}

// init builds the L2 over table t and registers self, the L2 type
// embedding l, with the fabric.
func (l *SharedL2) init(self coherence.Controller, t *coherence.Rules[int, sl2Action], id coherence.NodeID,
	name string, fab *network.Fabric, xg coherence.NodeID, cfg Config) {
	l.id, l.name, l.fab, l.cfg, l.xg = id, name, fab, cfg, xg
	l.evictions = make(map[mem.Addr]struct{})
	l.doRecv = l.Recv
	l.doReplay = func(m *coherence.Msg) {
		prev := l.replaying
		l.replaying = m
		l.Recv(m)
		l.replaying = prev
	}
	l.tab, l.Cov = t, t.Coverage()
	l.cache = cacheset.New[sl2Line](cfg.L2Sets, cfg.L2Ways)
	l.ignoreAck = make(map[ackKey]int)
	l.doServe = l.serve
	fab.Register(self)
}

// Shared-L2 coverage states: the host grant level (by AState), the same
// with a transaction open (+busy), and not-present.
const (
	sl2Busy = int(AM) + 1 // + host state
	sl2NP   = 2 * sl2Busy
)

// sharedL2Table is the shared L2's coverage vocabulary. It has no local
// events: everything it does answers an inner L1 or the guard.
var sharedL2Table = coherence.NewTable(
	[]string{"I", "S", "E", "M", "I+busy", "S+busy", "E+busy", "M+busy", "NP"}, nil,
	coherence.XGetS, coherence.XGetM, coherence.XPutM, coherence.XPutS, coherence.XInvAck, coherence.XInvWB,
	coherence.ADataS, coherence.ADataE, coherence.ADataM, coherence.AWBAck, coherence.AInv, coherence.ANack)

// sl2Action is what a cell of the shared L2's table does. The first four
// take a Get, so they wait behind queued requests and a writeback in
// flight.
type sl2Action uint8

const (
	fetchMiss    sl2Action = iota // allocate the line and fetch it from the guard
	fetchKeep                     // fetchMiss, but the M grant keeps copies (weak model: see sl2Txn.keep)
	lookupGet                     // reserve the line for the lookup latency, then serve the Get
	lookupKeep                    // lookupGet, but the M grant keeps copies (weak model)
	queueGet                      // queue the Get behind the open transaction
	takePut                       // take the owner's writeback
	busyPut                       // a Put racing the open transaction (see Recv)
	mergePut                      // take any holder's writeback, idle or racing (weak model)
	forgetSharer                  // XPutS: forget the sharer, fire-and-forget
	collectAck                    // an inner L1 answers the transaction's XInv
	dropLate                      // an XInvAck whose Put already answered its XInv
	takeGrant                     // the guard answers the fetch
	abandonFetch                  // a quarantined guard refuses the fetch
	endEviction                   // the guard acknowledges or refuses the writeback
	serveInv                      // the guard's Invalidate (see handleAInv)
)

var (
	sl2Gets     = []int{sharedL2Table.Event(coherence.XGetS), sharedL2Table.Event(coherence.XGetM)}
	sl2GetM     = sl2Gets[1:]
	sl2PutM     = []int{sharedL2Table.Event(coherence.XPutM)}
	sl2PutS     = []int{sharedL2Table.Event(coherence.XPutS)}
	sl2InvAck   = []int{sharedL2Table.Event(coherence.XInvAck)}
	sl2InvResps = []int{sharedL2Table.Event(coherence.XInvAck), sharedL2Table.Event(coherence.XInvWB)}
	sl2Grants   = []int{sharedL2Table.Event(coherence.ADataS), sharedL2Table.Event(coherence.ADataE), sharedL2Table.Event(coherence.ADataM)}
	sl2WBEnds   = []int{sharedL2Table.Event(coherence.AWBAck), sharedL2Table.Event(coherence.ANack)}
	sl2Inv      = []int{sharedL2Table.Event(coherence.AInv)}
	sl2Nack     = []int{sharedL2Table.Event(coherence.ANack)}
)

// sl2Rules is the shared L2's table, keyed on its coverage state. Idle I
// has no row: a grant always sets the line's level. An inner L1 owns a line
// only under an E or M grant, so only those take a PutM; the guard answers
// a fetch, open only at I+busy or S+busy, with a grant or a Nack; a
// writeback closes only after its line has left the cache.
var sl2Rules = coherence.NewRules("accel2L.L2", sharedL2Table, []coherence.Row[int, sl2Action]{
	{St: sl2NP, Evs: sl2Gets, Do: fetchMiss},
	{St: sl2NP, Evs: sl2PutS, Do: forgetSharer},
	{St: sl2NP, Evs: sl2InvAck, Do: dropLate},
	{St: sl2NP, Evs: sl2WBEnds, Do: endEviction},
	{St: sl2NP, Evs: sl2Inv, Do: serveInv},
	{St: int(AS), Evs: sl2Gets, Do: lookupGet},
	{St: int(AS), Evs: sl2PutS, Do: forgetSharer},
	{St: int(AS), Evs: sl2InvAck, Do: dropLate},
	{St: int(AS), Evs: sl2Inv, Do: serveInv},
	{St: int(AE), Evs: sl2Gets, Do: lookupGet},
	{St: int(AE), Evs: sl2PutM, Do: takePut},
	{St: int(AE), Evs: sl2PutS, Do: forgetSharer},
	{St: int(AE), Evs: sl2InvAck, Do: dropLate},
	{St: int(AE), Evs: sl2Inv, Do: serveInv},
	{St: int(AM), Evs: sl2Gets, Do: lookupGet},
	{St: int(AM), Evs: sl2PutM, Do: takePut},
	{St: int(AM), Evs: sl2PutS, Do: forgetSharer},
	{St: int(AM), Evs: sl2InvAck, Do: dropLate},
	{St: int(AM), Evs: sl2Inv, Do: serveInv},
	{St: sl2Busy + int(AI), Evs: sl2Gets, Do: queueGet},
	{St: sl2Busy + int(AI), Evs: sl2PutS, Do: forgetSharer},
	{St: sl2Busy + int(AI), Evs: sl2InvResps, Do: collectAck},
	{St: sl2Busy + int(AI), Evs: sl2Grants, Do: takeGrant},
	{St: sl2Busy + int(AI), Evs: sl2Inv, Do: serveInv},
	{St: sl2Busy + int(AI), Evs: sl2Nack, Do: abandonFetch},
	{St: sl2Busy + int(AS), Evs: sl2Gets, Do: queueGet},
	{St: sl2Busy + int(AS), Evs: sl2PutS, Do: forgetSharer},
	{St: sl2Busy + int(AS), Evs: sl2InvResps, Do: collectAck},
	{St: sl2Busy + int(AS), Evs: sl2Grants, Do: takeGrant},
	{St: sl2Busy + int(AS), Evs: sl2Inv, Do: serveInv},
	{St: sl2Busy + int(AS), Evs: sl2Nack, Do: abandonFetch},
	{St: sl2Busy + int(AE), Evs: sl2Gets, Do: queueGet},
	{St: sl2Busy + int(AE), Evs: sl2PutM, Do: busyPut},
	{St: sl2Busy + int(AE), Evs: sl2PutS, Do: forgetSharer},
	{St: sl2Busy + int(AE), Evs: sl2InvResps, Do: collectAck},
	{St: sl2Busy + int(AE), Evs: sl2Inv, Do: serveInv},
	{St: sl2Busy + int(AM), Evs: sl2Gets, Do: queueGet},
	{St: sl2Busy + int(AM), Evs: sl2PutM, Do: busyPut},
	{St: sl2Busy + int(AM), Evs: sl2PutS, Do: forgetSharer},
	{St: sl2Busy + int(AM), Evs: sl2InvResps, Do: collectAck},
	{St: sl2Busy + int(AM), Evs: sl2Inv, Do: serveInv},
})

// covState is the line's coverage state.
func (l *SharedL2) covState(e *cacheset.Entry[sl2Line]) int {
	if e == nil {
		return sl2NP
	}
	if e.V.busy() {
		return sl2Busy + int(e.V.host)
	}
	return int(e.V.host)
}

// Recv implements coherence.Controller: a message of the hierarchy's epoch
// runs the cell of its line's coverage state, once the per-line FIFO lets
// it. A message no cell takes is a protocol bug.
func (l *SharedL2) Recv(m *coherence.Msg) {
	if m.Epoch != l.epoch {
		// A pre-reset straggler (guard or inner-level): drop before it can
		// touch the fresh hierarchy.
		return
	}
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	k, ev := l.covState(e), sharedL2Table.Event(m.Type)
	l.Cov.Record(k, ev)
	do := l.tab.At(k, ev)
	if do == nil {
		l.unexpected(k, m)
	}
	act := *do
	if act <= lookupKeep && (l.evicting(addr) || l.waiting.Waiting(addr) && m != l.replaying) {
		// Strict per-line FIFO: nothing may overtake queued requests.
		act = queueGet
	}
	if (act == takeGrant || act == abandonFetch) && e.V.txn.kind != sl2Fetch {
		panic(fmt.Sprintf("%s: %v with no fetch", l.name, m))
	}
	switch act {
	case fetchMiss, fetchKeep:
		l.missFetch(m, act == fetchKeep)
	case lookupGet, lookupKeep:
		l.fab.CallAfter(l.cfg.L2Lat, l.doServe, m)
		l.open(&e.V, sl2LocalInv, m.Src, false)
		e.V.txn.keep = act == lookupKeep
	case queueGet:
		l.waiting.Push(addr, m)
	case takePut:
		if e.V.owner != m.Src {
			panic(fmt.Sprintf("%s: Put from non-owner %d for %v", l.name, m.Src, addr))
		}
		l.absorbPut(e, m)
		l.wake(addr)
	case busyPut:
		switch {
		case e.V.txn.wait.Remove(m.Src):
			// The owner's Put crossed our Inv: absorb it as the response.
			l.absorbPut(e, m)
			l.ignoreAck[ackKey{addr, m.Src}]++
			l.advance(addr, e)
		case e.V.owner == m.Src:
			// The owner's Put arrived in a transaction's lookup window,
			// before any Inv went out: absorb it now so the transaction
			// proceeds against current data and a cleared owner.
			l.absorbPut(e, m)
		default:
			l.waiting.Push(addr, m)
		}
	case mergePut:
		// The weak model's write-back: a holder's whole block wins, the
		// last writer's over the others'. A Put that crossed our Inv
		// answers it.
		if !e.V.sharers.Remove(m.Src) {
			panic(fmt.Sprintf("%s: Put from non-holder %d for %v", l.name, m.Src, addr))
		}
		l.absorbPut(e, m)
		switch {
		case !e.V.busy():
			l.wake(addr)
		case e.V.txn.wait.Remove(m.Src):
			l.ignoreAck[ackKey{addr, m.Src}]++
			l.advance(addr, e)
		}
	case forgetSharer:
		if e != nil {
			e.V.sharers.Remove(m.Src)
		}
	case collectAck:
		if !l.ignored(m) {
			l.collectAck(e, m)
		}
	case dropLate:
		if !l.ignored(m) {
			l.unexpected(k, m)
		}
	case takeGrant:
		l.takeGrant(e, m)
	case abandonFetch:
		// The inner requestor gets no grant: the device is about to be
		// reset.
		l.fab.FreeBlock(l.leave(e).data)
	case endEviction:
		l.closeEviction(addr, m)
	case serveInv:
		l.handleAInv(m)
	}
}

// unexpected panics on message m, naming the cell (k, m) it has no row for.
func (l *SharedL2) unexpected(k int, m *coherence.Msg) {
	panic(fmt.Sprintf("%s: unexpected %v in state %s", l.name, m, sharedL2Table.States()[k]))
}

// Reset reinitializes the shared L2 under a new guard epoch (the
// recovery protocol's device-reset step). The inner L1s reset in the
// same hook, so the whole hierarchy re-enters empty and any in-flight
// internal message drops as stale on arrival.
func (l *SharedL2) Reset(epoch uint32) {
	l.epoch = epoch
	clear(l.evictions)
	l.invs.Reset()
	l.waiting.Reset()
	clear(l.stalled)
	clear(l.full)
	l.stalled, l.full, l.replaying = l.stalled[:0], l.full[:0], nil
	l.cache.Reset()
	l.txns.Reset()
	clear(l.ignoreAck)
}

// Restart returns the L2 to its just-built state for the machine's next
// run, keeping its storage. Unlike a device reset it zeroes coverage and
// counters too. The machine's Reset calls it.
func (l *SharedL2) Restart() {
	l.Reset(0)
	l.Cov.Reset()
	l.LocalSharing = 0
}

// --- inner L1 requests ---

func (l *SharedL2) missFetch(m *coherence.Msg, keep bool) {
	addr := m.Addr.Line()
	var victim cacheset.Entry[sl2Line]
	e, evicted, ok := l.cache.Allocate(addr, func(e *cacheset.Entry[sl2Line]) bool {
		return !e.V.busy() && len(e.V.sharers) == 0 &&
			e.V.owner == coherence.NodeNone && !l.evicting(e.Addr)
	}, &victim)
	if !ok {
		// Recall the LRU idle line with local copies so the miss can
		// allocate when it is replayed; with every way busy, the miss
		// waits for a line to go idle.
		var cand *cacheset.Entry[sl2Line]
		l.cache.VisitSet(addr, func(e *cacheset.Entry[sl2Line]) {
			if !e.V.busy() && !l.evicting(e.Addr) && (cand == nil || l.cache.LRUOrder(e) < l.cache.LRUOrder(cand)) {
				cand = e
			}
		})
		m.Keep()
		if cand == nil {
			l.full = append(l.full, m)
			return
		}
		l.recallCopies(cand, sl2LocalInv)
		l.stalled = append(l.stalled, m)
		return
	}
	if evicted {
		l.putToGuard(victim.Addr, victim.V.host, victim.V.dirty, victim.V.data)
		l.spare.Put(victim.V.sharers)
	}
	wantM := m.Type == coherence.XGetM
	e.V = sl2Line{owner: coherence.NodeNone, sharers: l.spare.Get()}
	l.open(&e.V, sl2Fetch, m.Src, wantM)
	e.V.txn.keep = keep
	ty := coherence.AGetS
	if wantM {
		ty = coherence.AGetM
	}
	l.send(coherence.Msg{Type: ty, Addr: addr, Dst: l.xg})
}

// serve handles a Get against a present line (reserved by a lookup txn).
func (l *SharedL2) serve(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil || !e.V.busy() {
		l.fab.CallAfter(0, l.doRecv, m)
		return
	}
	t := e.V.txn
	if m.Type == coherence.XGetS {
		if e.V.owner != coherence.NodeNone {
			// Pull the dirty copy out of the owner first.
			l.invalidateCopies(e, coherence.NodeNone)
			l.LocalSharing++
			return // completed in collectAck
		}
		l.grantS(addr, e, m.Src)
		return
	}
	// XGetM.
	if e.V.host == AS {
		// Upgrade needed from the host before any local write.
		t.kind = sl2Fetch
		t.wantM = true
		l.send(coherence.Msg{Type: coherence.AGetM, Addr: addr, Dst: l.xg})
		// A guard Invalidate parked during the lookup window must be
		// answered now: the guard defers our Get until it is, so waiting
		// for the fetch to finish first would deadlock into the 2c timeout.
		if parked := l.invs.Pop(addr); parked != nil {
			l.fab.Release(parked)
			l.invalidateUnderFetch(addr, e)
		}
		return
	}
	l.localInvForGetM(addr, e)
}

// localInvForGetM invalidates all local copies except the requestor's,
// then grants M.
func (l *SharedL2) localInvForGetM(addr mem.Addr, e *cacheset.Entry[sl2Line]) {
	t := e.V.txn
	t.kind = sl2LocalInv
	t.wantM = true
	if e.V.owner != coherence.NodeNone && e.V.owner != t.requestor {
		l.LocalSharing++
	}
	if !t.keep {
		l.invalidateCopies(e, t.requestor)
	}
	l.maybeGrantM(addr, e)
}

func (l *SharedL2) grantS(addr mem.Addr, e *cacheset.Entry[sl2Line], i coherence.NodeID) {
	e.V.sharers.Add(i)
	l.closeTxn(&e.V)
	l.send(coherence.Msg{Type: coherence.XDataS, Addr: addr, Dst: i,
		Data: e.V.data})
	l.wake(addr)
}

func (l *SharedL2) maybeGrantM(addr mem.Addr, e *cacheset.Entry[sl2Line]) {
	t := e.V.txn
	if t == nil || len(t.wait) > 0 {
		return
	}
	i := t.requestor
	if t.keep {
		e.V.sharers.Add(i)
	} else {
		e.V.sharers = e.V.sharers[:0]
		e.V.owner = i
	}
	l.closeTxn(&e.V)
	l.send(coherence.Msg{Type: coherence.XDataM, Addr: addr, Dst: i,
		Data: e.V.data})
	l.wake(addr)
}

// --- writebacks from inner L1s ---

// absorbPut takes the owner's written-back data into the line and acks it.
func (l *SharedL2) absorbPut(e *cacheset.Entry[sl2Line], m *coherence.Msg) {
	l.fab.FillBlock(&e.V.data, m.Data)
	e.V.dirty = true
	e.V.owner = coherence.NodeNone
	l.send(coherence.Msg{Type: coherence.XWBAck, Addr: e.Addr, Dst: m.Src})
}

// ignored drops m if it is an XInvAck whose owner's Put already answered
// its XInv.
func (l *SharedL2) ignored(m *coherence.Msg) bool {
	k := ackKey{m.Addr.Line(), m.Src}
	if m.Type != coherence.XInvAck || l.ignoreAck[k] == 0 {
		return false
	}
	if l.ignoreAck[k]--; l.ignoreAck[k] == 0 {
		delete(l.ignoreAck, k)
	}
	return true
}

// collectAck takes an inner L1's answer to busy line e's XInv.
func (l *SharedL2) collectAck(e *cacheset.Entry[sl2Line], m *coherence.Msg) {
	if !e.V.txn.wait.Remove(m.Src) {
		panic(fmt.Sprintf("%s: unexpected inv response from %d for %v", l.name, m.Src, e.Addr))
	}
	if m.Type == coherence.XInvWB {
		l.fab.FillBlock(&e.V.data, m.Data)
		e.V.dirty = true
		e.V.owner = coherence.NodeNone
	} else if e.V.owner == m.Src {
		e.V.owner = coherence.NodeNone
	}
	e.V.sharers.Remove(m.Src)
	l.advance(e.Addr, e)
}

// advance moves a transaction forward once an ack set drains.
func (l *SharedL2) advance(addr mem.Addr, e *cacheset.Entry[sl2Line]) {
	t := e.V.txn
	if t == nil || len(t.wait) > 0 {
		return
	}
	if t.pendingInvAck {
		// Local copies gone: ack the guard's Invalidate; our fetch (if
		// any) continues and will deliver fresh data.
		t.pendingInvAck = false
		e.V.sharers = e.V.sharers[:0]
		e.V.dirty = false
		l.send(coherence.Msg{Type: coherence.AInvAck, Addr: addr, Dst: l.xg})
		if t.kind != sl2Fetch {
			panic(fmt.Sprintf("%s: pendingInvAck outside a fetch at %v", l.name, addr))
		}
		if t.granted {
			l.resumeGrant(addr, e)
		}
		return
	}
	switch {
	case t.kind == sl2Recall:
		v := l.leave(e)
		l.answerInv(addr, v.host, v.dirty, v.data)
	case t.requestor == coherence.NodeNone:
		// Local recall for eviction: write the line back to the guard.
		v := l.leave(e)
		l.putToGuard(addr, v.host, v.dirty, v.data)
		l.wake(addr)
		l.replayStalled()
	case t.wantM:
		l.maybeGrantM(addr, e)
	default:
		// XGetS that pulled data from the owner.
		l.grantS(addr, e, t.requestor)
	}
}

// --- Crossing Guard interactions ---

// takeGrant lands the guard's grant on busy line e.
func (l *SharedL2) takeGrant(e *cacheset.Entry[sl2Line], m *coherence.Msg) {
	t := e.V.txn
	e.V.host = grantLevel(m.Type)
	l.fab.FillBlock(&e.V.data, m.Data)
	e.V.dirty = false
	t.granted = true
	if t.pendingInvAck {
		// Still gathering local acks for a guard Invalidate that raced
		// with this fetch; the grant data is fresh and stays, and
		// advance() resumes the grant once the guard is acked.
		return
	}
	l.resumeGrant(e.Addr, e)
}

// resumeGrant completes a fetch once its grant (and any racing guard
// Invalidate) has been dealt with.
func (l *SharedL2) resumeGrant(addr mem.Addr, e *cacheset.Entry[sl2Line]) {
	t := e.V.txn
	if t.wantM {
		if e.V.host == AS {
			panic(fmt.Sprintf("%s: DataS answered GetM at %v", l.name, addr))
		}
		l.localInvForGetM(addr, e)
		return
	}
	l.grantS(addr, e, t.requestor)
}

func (l *SharedL2) handleAInv(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil {
		// Nothing held — or, with our Put in flight, a Put/Inv race the
		// guard resolves from the Put's data.
		l.send(coherence.Msg{Type: coherence.AInvAck, Addr: addr, Dst: l.xg})
		return
	}
	switch {
	case !e.V.busy():
		// Stable line: recall every local copy, then answer the guard.
		l.recallCopies(e, sl2Recall)
	case e.V.txn.kind == sl2Fetch:
		l.invalidateUnderFetch(addr, e)
	default:
		// Local transaction in progress: serve the Invalidate with
		// priority as soon as it completes (it must never wait behind
		// queued requests, whose guard Gets are deferred until this
		// Invalidate is answered).
		if l.invs.Waiting(addr) {
			panic(fmt.Sprintf("%s: second concurrent guard Invalidate for %v", l.name, addr))
		}
		l.invs.Push(addr, m)
	}
}

// recallCopies opens a requestor-less transaction that pulls the idle
// line out of every inner L1 holding it, and advances at once when there
// is none.
func (l *SharedL2) recallCopies(e *cacheset.Entry[sl2Line], kind sl2TxnKind) {
	l.open(&e.V, kind, coherence.NodeNone, false)
	l.invalidateCopies(e, coherence.NodeNone)
	l.advance(e.Addr, e)
}

// invalidateCopies sends XInv to every inner L1 but except holding the
// line — sharers in ascending order, then the owner; a line with an owner
// has no sharers — and has the transaction wait for each one's response.
func (l *SharedL2) invalidateCopies(e *cacheset.Entry[sl2Line], except coherence.NodeID) {
	for _, s := range e.V.sharers {
		if s != except {
			e.V.txn.wait.Add(s)
			l.send(coherence.Msg{Type: coherence.XInv, Addr: e.Addr, Dst: s})
		}
	}
	if o := e.V.owner; o != coherence.NodeNone && o != except {
		e.V.txn.wait.Add(o)
		l.send(coherence.Msg{Type: coherence.XInv, Addr: e.Addr, Dst: o})
	}
}

// invalidateUnderFetch answers a guard Invalidate that hit a line with a
// fetch outstanding: local copies die, the guard is acked, and the fetch
// continues (its grant carries fresh post-invalidation data).
func (l *SharedL2) invalidateUnderFetch(addr mem.Addr, e *cacheset.Entry[sl2Line]) {
	t := e.V.txn
	if len(t.wait) > 0 {
		panic(fmt.Sprintf("%s: fetch at %v is collecting acks of its own", l.name, addr))
	}
	t.pendingInvAck = true
	l.invalidateCopies(e, coherence.NodeNone)
	e.V.owner = coherence.NodeNone
	e.V.host = AI // whatever we held is gone; the grant re-establishes
	l.advance(addr, e)
}

// leave closes line e's transaction and takes the line out of the cache,
// keeping its sharer set's storage, and returns what the line held.
func (l *SharedL2) leave(e *cacheset.Entry[sl2Line]) sl2Line {
	l.closeTxn(&e.V)
	v := e.V
	l.spare.Put(v.sharers)
	l.cache.Invalidate(e.Addr)
	return v
}

// OpenTxns reports the lines with a transaction open (none at quiesce).
func (l *SharedL2) OpenTxns() int { return l.txns.Live() }

// Outstanding reports open transactions and queued work.
func (l *SharedL2) Outstanding() int {
	return l.txns.Live() + l.invs.Len() + len(l.evictions) + len(l.stalled) + len(l.full) + l.waiting.Len()
}

// Coverage returns the L2's (state, event) coverage.
func (l *SharedL2) Coverage() *coherence.Coverage { return l.Cov }

// Held reports idle lines for invariant checks: the hierarchy's claim
// toward the host, and the L2's data view. The claim is the guard's grant,
// or Modified once an inner core has written under it; an M grant is
// dirty toward the host before any write, as its data may have come from
// a CPU's dirty copy.
func (l *SharedL2) Held(fn chassis.HeldFunc) {
	l.cache.Visit(func(e *cacheset.Entry[sl2Line]) {
		if !e.V.busy() {
			st := claim(e.V.host, e.V.dirty)
			fn(e.Addr, st.Level(), e.V.data, st == AM)
		}
	})
}

// VisitOwned reports every idle line an inner L1 is recorded as owning.
func (l *SharedL2) VisitOwned(fn func(addr mem.Addr, owner coherence.NodeID)) {
	l.cache.Visit(func(e *cacheset.Entry[sl2Line]) {
		if !e.V.busy() && e.V.owner != coherence.NodeNone {
			fn(e.Addr, e.V.owner)
		}
	})
}

// Line reports the inner L1 recorded as addr's owner and the L2's copy of
// the line, if it holds it idle: the L2 is inclusive.
func (l *SharedL2) Line(addr mem.Addr) (coherence.NodeID, *mem.Block, bool) {
	if e := l.cache.Peek(addr); e != nil && !e.V.busy() {
		return e.V.owner, e.V.data, true
	}
	return coherence.NodeNone, nil, false
}

// --- the guard side and the request queues ---

// ID implements coherence.Controller.
func (l *SharedL2) ID() coherence.NodeID { return l.id }

// Name implements coherence.Controller.
func (l *SharedL2) Name() string { return l.name }

// send takes a message holding t from the pool, stamps the hierarchy's
// epoch on it and hands it to the fabric (every protocol message an L2
// emits — guard-bound or internal — carries the epoch).
func (l *SharedL2) send(t coherence.Msg) {
	t.Src, t.Epoch = l.id, l.epoch
	l.fab.Send(l.fab.Msg(t))
}

// evicting reports whether addr's writeback to the guard is in flight.
func (l *SharedL2) evicting(addr mem.Addr) bool {
	_, ok := l.evictions[addr]
	return ok
}

// putToGuard starts the writeback of an evicted line to Crossing Guard,
// by Table 1's Replacement cell for the line's claim, and gives the line's
// block, copied into the Put, back.
func (l *SharedL2) putToGuard(addr mem.Addr, host AState, dirty bool, data *mem.Block) {
	l.evictions[addr] = struct{}{}
	l.send(cellMsg(table1.At(claim(host, dirty), evReplacement).send, addr, l.xg, data))
	l.fab.FreeBlock(data)
}

// closeEviction retires addr's writeback (acked, or refused by a
// quarantined guard) and wakes what waited for it.
func (l *SharedL2) closeEviction(addr mem.Addr, m *coherence.Msg) {
	if !l.evicting(addr) {
		panic(fmt.Sprintf("%s: %v with no eviction", l.name, m))
	}
	delete(l.evictions, addr)
	l.wake(addr)
	l.replayStalled()
}

// answerInv answers the guard's Invalidate for a line that has just left
// the cache by Table 1's Invalidate cell for the line's claim — with the
// data when the grant or a local write made it ours to return — gives the
// line's block back, and wakes what waited.
func (l *SharedL2) answerInv(addr mem.Addr, host AState, dirty bool, data *mem.Block) {
	l.send(cellMsg(table1.At(claim(host, dirty), aInv).send, addr, l.xg, data))
	l.fab.FreeBlock(data)
	l.wake(addr)
	l.replayStalled()
}

// claim is the Table 1 state an L2 line answers the guard from: its grant,
// or Modified once an inner core has written under it.
func claim(host AState, dirty bool) AState {
	if dirty {
		return AM
	}
	return host
}

// wake serves the guard Invalidate parked on addr's line, or with none the
// oldest queued request: the line has gone idle or left the cache, so the
// misses that found every way busy replay too.
func (l *SharedL2) wake(addr mem.Addr) {
	l.replay(&l.full)
	next := l.invs.Pop(addr)
	inv := next != nil
	if !inv {
		if next = l.waiting.Pop(addr); next == nil {
			return
		}
	}
	// Process synchronously so no same-tick arrival can cut in front.
	prev := l.replaying
	l.replaying = next
	l.fab.BeginRecv(next)
	if inv {
		l.handleAInv(next)
	} else {
		l.Recv(next)
	}
	l.fab.EndRecv(next)
	l.replaying = prev
}

// replayStalled replays the misses waiting for a recalled way: a line has
// left the cache.
func (l *SharedL2) replayStalled() { l.replay(&l.stalled) }

// replay hands every miss of ms back to Recv as the head of its line's
// queue, and empties ms.
func (l *SharedL2) replay(ms *[]*coherence.Msg) {
	for i, m := range *ms {
		l.fab.CallAfter(0, l.doReplay, m)
		(*ms)[i] = nil
	}
	*ms = (*ms)[:0]
}

// WBPending reports writebacks to the guard in flight (zero at quiesce).
func (l *SharedL2) WBPending() int { return len(l.evictions) }

// grantLevel is the permission a guard grant confers: Table 1's B row.
func grantLevel(t coherence.MsgType) AState { return table1.At(AB, l1Table.Event(t)).next }
