package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
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

type sl2Txn struct {
	kind      sl2TxnKind
	requestor coherence.NodeID // inner L1 being served
	wantM     bool
	wait      map[coherence.NodeID]bool
	// pendingInvAck: a Crossing Guard Invalidate arrived mid-fetch; once
	// local copies are gone, ack the guard and keep waiting for (fresh)
	// data.
	pendingInvAck bool
	invWait       map[coherence.NodeID]bool
	granted       bool // the fetch's grant already arrived
}

// sl2Line is the payload of one shared-L2 line. data is the L2's own
// block, taken from the machine's block list when the grant lands and
// given back when the line leaves the cache.
type sl2Line struct {
	host    AState // grant level held from Crossing Guard (S/E/M)
	data    *mem.Block
	dirty   bool // modified relative to the grant
	sharers map[coherence.NodeID]bool
	owner   coherence.NodeID
	txn     *sl2Txn
}

// SharedL2 is the shared inclusive accelerator L2 of the two-level
// design; it is the only agent that speaks the Crossing Guard interface.
type SharedL2 struct {
	id   coherence.NodeID
	name string
	eng  *sim.Engine
	fab  *network.Fabric
	cfg  Config
	xg   coherence.NodeID

	cache     *cacheset.Cache[sl2Line]
	evictions map[mem.Addr]struct{} // writebacks to the guard awaiting WBAck
	waiting   coherence.LineQueues
	stalled   []*coherence.Msg // kept until replayed
	replaying *coherence.Msg   // message being replayed from the queue head
	// hostInv holds (and keeps) a guard Invalidate that arrived during a
	// local transaction; it is serviced with priority as soon as the line
	// goes idle, ahead of queued requests (whose own guard Gets may be
	// deferred until this very Invalidate is answered).
	hostInv   map[mem.Addr]*coherence.Msg
	ignoreAck map[mem.Addr]map[coherence.NodeID]int
	// doRecv and doServe are Recv and serve bound once (CallAfter's
	// handlers).
	doRecv, doServe func(*coherence.Msg)

	Cov *coherence.Coverage
	// LocalSharing counts data requests satisfied without crossing to
	// the host (the benefit of Figure 2d).
	LocalSharing uint64

	// epoch is the guard epoch the hierarchy operates under (0 until the
	// first device reset); the whole two-level hierarchy resets as one,
	// so internal X* traffic carries it too and pre-reset stragglers on
	// either level are dropped.
	epoch uint32
	// StaleDrops counts messages dropped for a stale epoch; Nacked
	// counts transactions refused by a quarantined guard.
	StaleDrops, Nacked uint64
}

// NewSharedL2 builds and registers the shared accelerator L2.
func NewSharedL2(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	xg coherence.NodeID, cfg Config) *SharedL2 {
	l := &SharedL2{
		id: id, name: name, eng: eng, fab: fab, cfg: cfg, xg: xg,
		cache:     cacheset.New[sl2Line](cfg.L2Sets, cfg.L2Ways),
		evictions: make(map[mem.Addr]struct{}),
		waiting:   make(coherence.LineQueues),
		hostInv:   make(map[mem.Addr]*coherence.Msg),
		ignoreAck: make(map[mem.Addr]map[coherence.NodeID]int),
		Cov:       NewSharedL2Coverage(),
	}
	l.doRecv, l.doServe = l.Recv, l.serve
	fab.Register(l)
	return l
}

// Shared-L2 coverage states: the host grant level (by AState), the same
// with a transaction open (+busy), and not-present.
const (
	sl2Busy   = len(aStateNames) // + host state
	sl2NP     = 2 * len(aStateNames)
	sl2NPBusy = sl2NP + 1
)

// sharedL2Table is the shared L2's coverage vocabulary. It has no local
// events: everything it does answers an inner L1 or the guard.
var sharedL2Table = coherence.NewTable(
	[]string{"I", "S", "E", "M", "B", "I+busy", "S+busy", "E+busy", "M+busy", "B+busy", "NP", "NP+busy"}, nil,
	coherence.XGetS, coherence.XGetM, coherence.XPutM, coherence.XPutS, coherence.XInvAck, coherence.XInvWB,
	coherence.ADataS, coherence.ADataE, coherence.ADataM, coherence.AWBAck, coherence.AInv, coherence.ANack)

// NewSharedL2Coverage declares reachable (state, event) pairs.
func NewSharedL2Coverage() *coherence.Coverage {
	cov := coherence.NewCoverage("accel2L.L2", sharedL2Table)
	var states, events []int
	for _, st := range []AState{AI, AS, AE, AM} {
		states = append(states, int(st), sl2Busy+int(st))
	}
	states = append(states, sl2NP, sl2NPBusy)
	for _, m := range []coherence.MsgType{
		coherence.XGetS, coherence.XGetM, coherence.XPutM, coherence.XPutS, coherence.XInvAck, coherence.XInvWB,
		coherence.ADataS, coherence.ADataE, coherence.ADataM, coherence.AWBAck, coherence.AInv} {
		events = append(events, sharedL2Table.Event(m))
	}
	cov.DeclareAll(states, events)
	return cov
}

// ID implements coherence.Controller.
func (l *SharedL2) ID() coherence.NodeID { return l.id }

// Name implements coherence.Controller.
func (l *SharedL2) Name() string { return l.name }

// covState is the line's coverage state.
func (l *SharedL2) covState(e *cacheset.Entry[sl2Line]) int {
	if e == nil {
		return sl2NP
	}
	if e.V.txn != nil {
		return sl2Busy + int(e.V.host)
	}
	return int(e.V.host)
}

// Recv implements coherence.Controller.
func (l *SharedL2) Recv(m *coherence.Msg) {
	if m.Epoch != l.epoch {
		// A pre-reset straggler (guard or inner-level): drop before it can
		// touch the fresh hierarchy.
		l.StaleDrops++
		return
	}
	e := l.cache.Peek(m.Addr)
	l.Cov.Record(l.covState(e), sharedL2Table.Event(m.Type))
	switch m.Type {
	case coherence.XGetS, coherence.XGetM:
		l.handleGet(m)
	case coherence.XPutM:
		l.handlePut(m)
	case coherence.XPutS:
		if e := l.cache.Peek(m.Addr); e != nil {
			delete(e.V.sharers, m.Src)
		}
	case coherence.XInvAck, coherence.XInvWB:
		l.handleInvResp(m)
	case coherence.ADataS, coherence.ADataE, coherence.ADataM:
		l.handleGrant(m)
	case coherence.AWBAck:
		l.handleAWBAck(m)
	case coherence.AInv:
		l.handleAInv(m)
	case coherence.ANack:
		l.handleANack(m)
	default:
		panic(fmt.Sprintf("%s: unexpected %v", l.name, m))
	}
}

// Reset reinitializes the shared L2 under a new guard epoch (the
// recovery protocol's device-reset step). The inner L1s reset in the
// same hook, so the whole hierarchy re-enters empty and any in-flight
// internal message drops as stale on arrival.
func (l *SharedL2) Reset(epoch uint32) {
	l.epoch = epoch
	l.cache = cacheset.New[sl2Line](l.cfg.L2Sets, l.cfg.L2Ways)
	l.evictions = make(map[mem.Addr]struct{})
	l.waiting = make(coherence.LineQueues)
	l.stalled = nil
	l.replaying = nil
	l.hostInv = make(map[mem.Addr]*coherence.Msg)
	l.ignoreAck = make(map[mem.Addr]map[coherence.NodeID]int)
}

// handleANack closes a transaction a quarantined guard refused: a nacked
// eviction abandons the writeback, a nacked fetch abandons the line. The
// inner requestor gets no grant — the device is about to be reset.
func (l *SharedL2) handleANack(m *coherence.Msg) {
	addr := m.Addr.Line()
	l.Nacked++
	if _, ok := l.evictions[addr]; ok {
		delete(l.evictions, addr)
		l.pop(addr)
		l.replayStalled()
		return
	}
	if e := l.cache.Peek(addr); e != nil && e.V.txn != nil && e.V.txn.kind == sl2Fetch {
		l.invalidate(e)
	}
}

// send takes a message holding t from the pool, stamps the hierarchy's
// epoch on it and hands it to the fabric (every protocol message the L2
// emits — guard-bound or internal — carries the epoch).
func (l *SharedL2) send(t coherence.Msg) {
	t.Src, t.Epoch = l.id, l.epoch
	l.fab.Send(l.fab.Msg(t))
}

// invalidate drops the line and gives its block back.
func (l *SharedL2) invalidate(e *cacheset.Entry[sl2Line]) {
	l.fab.FreeBlock(e.V.data)
	l.cache.Invalidate(e.Addr)
}

// --- inner L1 requests ---

func (l *SharedL2) handleGet(m *coherence.Msg) {
	addr := m.Addr.Line()
	if _, evicting := l.evictions[addr]; evicting {
		l.waiting.Push(addr, m)
		return
	}
	e := l.cache.Peek(addr)
	if (e != nil && e.V.txn != nil) || (l.waiting.Waiting(addr) && m != l.replaying) {
		// Strict per-line FIFO: nothing may overtake queued requests.
		l.waiting.Push(addr, m)
		return
	}
	if e == nil {
		l.missFetch(m)
		return
	}
	l.fab.CallAfter(l.cfg.L2Lat, l.doServe, m)
	e.V.txn = &sl2Txn{kind: sl2LocalInv, requestor: m.Src, wait: map[coherence.NodeID]bool{}}
}

func (l *SharedL2) missFetch(m *coherence.Msg) {
	addr := m.Addr.Line()
	var victim cacheset.Entry[sl2Line]
	e, evicted, ok := l.cache.Allocate(addr, func(e *cacheset.Entry[sl2Line]) bool {
		_, evicting := l.evictions[e.Addr]
		return e.V.txn == nil && len(e.V.sharers) == 0 &&
			e.V.owner == coherence.NodeNone && !evicting
	}, &victim)
	if !ok {
		l.startLocalRecallInSet(addr)
		m.Keep()
		l.stalled = append(l.stalled, m)
		return
	}
	if evicted {
		l.putToGuard(victim.Addr, &victim.V)
	}
	wantM := m.Type == coherence.XGetM
	e.V = sl2Line{owner: coherence.NodeNone, sharers: map[coherence.NodeID]bool{},
		txn: &sl2Txn{kind: sl2Fetch, requestor: m.Src, wantM: wantM}}
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
	if e == nil || e.V.txn == nil {
		l.fab.CallAfter(0, l.doRecv, m)
		return
	}
	t := e.V.txn
	i := m.Src
	if m.Type == coherence.XGetS {
		if e.V.owner != coherence.NodeNone {
			// Pull the dirty copy out of the owner first.
			t.wait[e.V.owner] = true
			l.send(coherence.Msg{Type: coherence.XInv, Addr: addr, Dst: e.V.owner})
			l.LocalSharing++
			return // completed in handleInvResp
		}
		l.grantS(addr, e, i)
		return
	}
	// XGetM.
	if e.V.host == AS {
		// Upgrade needed from the host before any local write.
		t.kind = sl2Fetch
		t.wantM = true
		l.send(coherence.Msg{Type: coherence.AGetM, Addr: addr, Dst: l.xg})
		// A guard Invalidate that arrived during the lookup window must
		// be answered now: the guard defers our Get until it is.
		l.applyPendingHostInv(addr, e)
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
	if t.wait == nil {
		t.wait = map[coherence.NodeID]bool{}
	}
	if e.V.owner != coherence.NodeNone && e.V.owner != t.requestor {
		t.wait[e.V.owner] = true
		l.send(coherence.Msg{Type: coherence.XInv, Addr: addr, Dst: e.V.owner})
		l.LocalSharing++
	}
	for _, s := range coherence.SortedNodes(e.V.sharers) {
		if s != t.requestor {
			t.wait[s] = true
			l.send(coherence.Msg{Type: coherence.XInv, Addr: addr, Dst: s})
		}
	}
	l.maybeGrantM(addr, e)
}

func (l *SharedL2) grantS(addr mem.Addr, e *cacheset.Entry[sl2Line], i coherence.NodeID) {
	e.V.sharers[i] = true
	e.V.txn = nil
	l.send(coherence.Msg{Type: coherence.XDataS, Addr: addr, Dst: i,
		Data: e.V.data})
	l.pop(addr)
}

func (l *SharedL2) maybeGrantM(addr mem.Addr, e *cacheset.Entry[sl2Line]) {
	t := e.V.txn
	if t == nil || len(t.wait) > 0 {
		return
	}
	i := t.requestor
	e.V.sharers = map[coherence.NodeID]bool{}
	e.V.owner = i
	e.V.txn = nil
	l.send(coherence.Msg{Type: coherence.XDataM, Addr: addr, Dst: i,
		Data: e.V.data})
	l.pop(addr)
}

// --- writebacks from inner L1s ---

func (l *SharedL2) handlePut(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil {
		panic(fmt.Sprintf("%s: Put for absent line %v (inclusion broken)", l.name, addr))
	}
	if t := e.V.txn; t != nil && t.activeWait()[m.Src] {
		// The owner's Put crossed our Inv: absorb it as the response.
		delete(t.activeWait(), m.Src)
		l.fab.FillBlock(&e.V.data, m.Data)
		e.V.dirty = true
		e.V.owner = coherence.NodeNone
		l.send(coherence.Msg{Type: coherence.XWBAck, Addr: addr, Dst: m.Src})
		l.noteIgnore(addr, m.Src)
		l.advance(addr, e)
		return
	}
	if e.V.txn != nil {
		if e.V.owner == m.Src {
			// The owner's Put arrived in a transaction's lookup window,
			// before any Inv went out: absorb it now so the transaction
			// proceeds against current data and a cleared owner.
			l.fab.FillBlock(&e.V.data, m.Data)
			e.V.dirty = true
			e.V.owner = coherence.NodeNone
			l.send(coherence.Msg{Type: coherence.XWBAck, Addr: addr, Dst: m.Src})
			return
		}
		l.waiting.Push(addr, m)
		return
	}
	if e.V.owner != m.Src {
		panic(fmt.Sprintf("%s: Put from non-owner %d for %v", l.name, m.Src, addr))
	}
	l.fab.FillBlock(&e.V.data, m.Data)
	e.V.dirty = true
	e.V.owner = coherence.NodeNone
	l.send(coherence.Msg{Type: coherence.XWBAck, Addr: addr, Dst: m.Src})
	l.pop(addr)
}

// activeWait returns whichever ack set the transaction is collecting.
func (t *sl2Txn) activeWait() map[coherence.NodeID]bool {
	if t.pendingInvAck && t.invWait != nil {
		return t.invWait
	}
	if t.wait == nil {
		t.wait = map[coherence.NodeID]bool{}
	}
	return t.wait
}

func (l *SharedL2) noteIgnore(addr mem.Addr, n coherence.NodeID) {
	if l.ignoreAck[addr] == nil {
		l.ignoreAck[addr] = make(map[coherence.NodeID]int)
	}
	l.ignoreAck[addr][n]++
}

func (l *SharedL2) handleInvResp(m *coherence.Msg) {
	addr := m.Addr.Line()
	if m.Type == coherence.XInvAck {
		if byNode := l.ignoreAck[addr]; byNode[m.Src] > 0 {
			byNode[m.Src]--
			if byNode[m.Src] == 0 {
				delete(byNode, m.Src)
			}
			return
		}
	}
	e := l.cache.Peek(addr)
	if e == nil || e.V.txn == nil {
		panic(fmt.Sprintf("%s: inv response with no transaction: %v", l.name, m))
	}
	t := e.V.txn
	w := t.activeWait()
	if !w[m.Src] {
		panic(fmt.Sprintf("%s: unexpected inv response from %d for %v", l.name, m.Src, addr))
	}
	delete(w, m.Src)
	if m.Type == coherence.XInvWB {
		l.fab.FillBlock(&e.V.data, m.Data)
		e.V.dirty = true
		e.V.owner = coherence.NodeNone
	} else if e.V.owner == m.Src {
		e.V.owner = coherence.NodeNone
	}
	delete(e.V.sharers, m.Src)
	l.advance(addr, e)
}

// advance moves a transaction forward once an ack set drains.
func (l *SharedL2) advance(addr mem.Addr, e *cacheset.Entry[sl2Line]) {
	t := e.V.txn
	if t == nil {
		return
	}
	if t.pendingInvAck && t.invWait != nil {
		if len(t.invWait) > 0 {
			return
		}
		// Local copies gone: ack the guard's Invalidate; our fetch (if
		// any) continues and will deliver fresh data.
		t.pendingInvAck = false
		t.invWait = nil
		e.V.sharers = map[coherence.NodeID]bool{}
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
	if len(t.wait) > 0 {
		return
	}
	switch t.kind {
	case sl2LocalInv:
		if t.requestor != coherence.NodeNone && t.wantM {
			l.maybeGrantM(addr, e)
			return
		}
		if t.requestor != coherence.NodeNone {
			// XGetS that pulled data from the owner.
			l.grantS(addr, e, t.requestor)
			return
		}
		// Local recall for eviction: write the line back to the guard.
		v := e.V
		l.cache.Invalidate(addr)
		l.putToGuard(addr, &v)
		l.pop(addr)
		l.replayStalled()
	case sl2Recall:
		l.finishRecall(addr, e)
	}
}

// --- Crossing Guard interactions ---

func (l *SharedL2) handleGrant(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil || e.V.txn == nil || e.V.txn.kind != sl2Fetch {
		panic(fmt.Sprintf("%s: grant with no fetch: %v", l.name, m))
	}
	t := e.V.txn
	switch m.Type {
	case coherence.ADataS:
		e.V.host = AS
	case coherence.ADataE:
		e.V.host = AE
	case coherence.ADataM:
		e.V.host = AM
	}
	l.fab.FillBlock(&e.V.data, m.Data)
	e.V.dirty = false
	t.granted = true
	if t.pendingInvAck {
		// Still gathering local acks for a guard Invalidate that raced
		// with this fetch; the grant data is fresh and stays, and
		// advance() resumes the grant once the guard is acked.
		return
	}
	l.resumeGrant(addr, e)
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

func (l *SharedL2) handleAWBAck(m *coherence.Msg) {
	addr := m.Addr.Line()
	if _, ok := l.evictions[addr]; !ok {
		panic(fmt.Sprintf("%s: WBAck with no eviction: %v", l.name, m))
	}
	delete(l.evictions, addr)
	l.pop(addr)
	l.replayStalled()
}

func (l *SharedL2) handleAInv(m *coherence.Msg) {
	addr := m.Addr.Line()
	if _, evicting := l.evictions[addr]; evicting {
		// Put/Inv race: the guard resolves it from our Put data.
		l.send(coherence.Msg{Type: coherence.AInvAck, Addr: addr, Dst: l.xg})
		return
	}
	e := l.cache.Peek(addr)
	if e == nil {
		l.send(coherence.Msg{Type: coherence.AInvAck, Addr: addr, Dst: l.xg})
		return
	}
	if t := e.V.txn; t != nil {
		switch t.kind {
		case sl2Fetch:
			l.invalidateUnderFetch(addr, e)
		default:
			// Local transaction in progress: serve the Invalidate with
			// priority as soon as it completes (it must never wait
			// behind queued requests, whose guard Gets are deferred
			// until this Invalidate is answered).
			if l.hostInv[addr] != nil {
				panic(fmt.Sprintf("%s: second concurrent guard Invalidate for %v", l.name, addr))
			}
			m.Keep()
			l.hostInv[addr] = m
		}
		return
	}
	// Stable line: recall every local copy, then answer the guard.
	t := &sl2Txn{kind: sl2Recall, requestor: coherence.NodeNone, wait: map[coherence.NodeID]bool{}}
	e.V.txn = t
	for _, s := range coherence.SortedNodes(e.V.sharers) {
		t.wait[s] = true
		l.send(coherence.Msg{Type: coherence.XInv, Addr: addr, Dst: s})
	}
	if e.V.owner != coherence.NodeNone {
		t.wait[e.V.owner] = true
		l.send(coherence.Msg{Type: coherence.XInv, Addr: addr, Dst: e.V.owner})
	}
	l.advance(addr, e)
}

// invalidateUnderFetch answers a guard Invalidate that hit a line with a
// fetch outstanding: local copies die, the guard is acked, and the fetch
// continues (its grant carries fresh post-invalidation data).
func (l *SharedL2) invalidateUnderFetch(addr mem.Addr, e *cacheset.Entry[sl2Line]) {
	t := e.V.txn
	t.pendingInvAck = true
	t.invWait = map[coherence.NodeID]bool{}
	for _, s := range coherence.SortedNodes(e.V.sharers) {
		t.invWait[s] = true
		l.send(coherence.Msg{Type: coherence.XInv, Addr: addr, Dst: s})
	}
	if e.V.owner != coherence.NodeNone {
		t.invWait[e.V.owner] = true
		l.send(coherence.Msg{Type: coherence.XInv, Addr: addr, Dst: e.V.owner})
		e.V.owner = coherence.NodeNone
	}
	e.V.host = AI // whatever we held is gone; the grant re-establishes
	l.advance(addr, e)
}

// applyPendingHostInv services a parked guard Invalidate once the line's
// transaction has turned into a fetch: the guard defers our Get until the
// Invalidate is answered, so waiting for the fetch to finish first would
// deadlock into the 2c timeout.
func (l *SharedL2) applyPendingHostInv(addr mem.Addr, e *cacheset.Entry[sl2Line]) {
	m := l.hostInv[addr]
	if m == nil {
		return
	}
	if e.V.txn == nil || e.V.txn.kind != sl2Fetch {
		return // pop() services it when the line goes idle
	}
	delete(l.hostInv, addr)
	l.fab.Release(m)
	l.invalidateUnderFetch(addr, e)
}

func (l *SharedL2) finishRecall(addr mem.Addr, e *cacheset.Entry[sl2Line]) {
	host, data, dirty := e.V.host, e.V.data, e.V.dirty
	l.cache.Invalidate(addr)
	switch {
	case host == AM || dirty:
		l.send(coherence.Msg{Type: coherence.ADirtyWB, Addr: addr, Dst: l.xg, Data: data, Dirty: true})
	case host == AE:
		l.send(coherence.Msg{Type: coherence.ACleanWB, Addr: addr, Dst: l.xg, Data: data})
	default:
		l.send(coherence.Msg{Type: coherence.AInvAck, Addr: addr, Dst: l.xg})
	}
	l.fab.FreeBlock(data)
	l.pop(addr)
	l.replayStalled()
}

// putToGuard starts the writeback of an evicted line to Crossing Guard and
// gives the line's block, copied into the Put, back.
func (l *SharedL2) putToGuard(addr mem.Addr, v *sl2Line) {
	l.evictions[addr] = struct{}{}
	switch {
	case v.host == AM || v.dirty:
		l.send(coherence.Msg{Type: coherence.APutM, Addr: addr, Dst: l.xg, Data: v.data, Dirty: true})
	case v.host == AE:
		l.send(coherence.Msg{Type: coherence.APutE, Addr: addr, Dst: l.xg, Data: v.data})
	default:
		l.send(coherence.Msg{Type: coherence.APutS, Addr: addr, Dst: l.xg})
	}
	l.fab.FreeBlock(v.data)
}

// startLocalRecallInSet recalls the LRU idle line with local copies so a
// stalled miss can allocate.
func (l *SharedL2) startLocalRecallInSet(addr mem.Addr) {
	var cand *cacheset.Entry[sl2Line]
	l.cache.VisitSet(addr, func(e *cacheset.Entry[sl2Line]) {
		if e.V.txn != nil {
			return
		}
		if _, evicting := l.evictions[e.Addr]; evicting {
			return
		}
		if cand == nil || l.cache.LRUOrder(e) < l.cache.LRUOrder(cand) {
			cand = e
		}
	})
	if cand == nil {
		return
	}
	t := &sl2Txn{kind: sl2LocalInv, requestor: coherence.NodeNone, wait: map[coherence.NodeID]bool{}}
	cand.V.txn = t
	for _, s := range coherence.SortedNodes(cand.V.sharers) {
		t.wait[s] = true
		l.send(coherence.Msg{Type: coherence.XInv, Addr: cand.Addr, Dst: s})
	}
	if cand.V.owner != coherence.NodeNone {
		t.wait[cand.V.owner] = true
		l.send(coherence.Msg{Type: coherence.XInv, Addr: cand.Addr, Dst: cand.V.owner})
	}
	l.advance(cand.Addr, cand)
}

// --- wakeups ---

func (l *SharedL2) pop(addr mem.Addr) {
	if m := l.hostInv[addr]; m != nil {
		delete(l.hostInv, addr)
		l.fab.BeginRecv(m)
		l.handleAInv(m)
		l.fab.EndRecv(m)
		return
	}
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

func (l *SharedL2) replayStalled() {
	for i, m := range l.stalled {
		l.fab.CallAfter(0, l.doRecv, m)
		l.stalled[i] = nil
	}
	l.stalled = l.stalled[:0]
}

// Outstanding reports open transactions and queued work.
func (l *SharedL2) Outstanding() int {
	n := len(l.evictions) + len(l.stalled) + len(l.hostInv) + l.waiting.Len()
	l.cache.Visit(func(e *cacheset.Entry[sl2Line]) {
		if e.V.txn != nil {
			n++
		}
	})
	return n
}

// VisitStable reports idle lines for invariant checks: the grant held
// from the guard, local owner/sharers, and the L2's data view.
func (l *SharedL2) VisitStable(fn func(addr mem.Addr, host AState, owner coherence.NodeID, sharers int, data *mem.Block, dirty bool)) {
	l.cache.Visit(func(e *cacheset.Entry[sl2Line]) {
		if e.V.txn != nil {
			return
		}
		fn(e.Addr, e.V.host, e.V.owner, len(e.V.sharers), e.V.data, e.V.dirty)
	})
}
