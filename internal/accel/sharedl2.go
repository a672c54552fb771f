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
	sl2Idle     sl2TxnKind = iota // no transaction open
	sl2Fetch                      // Crossing Guard Get outstanding
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

// kind is the line's open transaction, sl2Idle when it is idle.
func (v *sl2Line) kind() sl2TxnKind {
	if v.txn == nil {
		return sl2Idle
	}
	return v.txn.kind
}

// open starts line v's transaction on a record whose wait set keeps its
// storage from one transaction to the next.
func (l *SharedL2) open(v *sl2Line, kind sl2TxnKind, requestor coherence.NodeID, wantM bool) *sl2Txn {
	t := l.txns.Get()
	*t = sl2Txn{kind: kind, requestor: requestor, wantM: wantM, wait: t.wait[:0]}
	v.txn = t
	return t
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
	l2Base // the guard side and the request queues; internal X* traffic carries its epoch too

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

	// StaleDrops counts messages dropped for a stale epoch; Nacked
	// counts transactions refused by a quarantined guard.
	StaleDrops, Nacked uint64
}

// NewSharedL2 builds and registers the shared accelerator L2.
func NewSharedL2(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	xg coherence.NodeID, cfg Config) *SharedL2 {
	l := &SharedL2{
		cache:     cacheset.New[sl2Line](cfg.L2Sets, cfg.L2Ways),
		ignoreAck: make(map[ackKey]int),
		Cov:       NewSharedL2Coverage(),
	}
	l.init(id, name, fab, xg, cfg, l.Recv, l.handleAInv)
	l.doServe = l.serve
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
			e.V.sharers.Remove(m.Src)
		}
	case coherence.XInvAck, coherence.XInvWB:
		l.handleInvResp(m)
	case coherence.ADataS, coherence.ADataE, coherence.ADataM:
		l.handleGrant(m)
	case coherence.AWBAck:
		l.closeEviction(m.Addr.Line(), m)
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
	l.reset(epoch)
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
	l.LocalSharing, l.StaleDrops, l.Nacked = 0, 0, 0
}

// handleANack closes a transaction a quarantined guard refused: a nacked
// eviction abandons the writeback, a nacked fetch abandons the line. The
// inner requestor gets no grant — the device is about to be reset.
func (l *SharedL2) handleANack(m *coherence.Msg) {
	addr := m.Addr.Line()
	l.Nacked++
	if l.evicting(addr) {
		l.closeEviction(addr, m)
		return
	}
	if e := l.cache.Peek(addr); e != nil && e.V.kind() == sl2Fetch {
		l.closeTxn(&e.V)
		l.fab.FreeBlock(e.V.data)
		l.spare.Put(e.V.sharers)
		l.cache.Invalidate(e.Addr)
	}
}

// --- inner L1 requests ---

func (l *SharedL2) handleGet(m *coherence.Msg) {
	addr := m.Addr.Line()
	if l.evicting(addr) {
		l.waiting.Push(addr, m)
		return
	}
	e := l.cache.Peek(addr)
	if (e != nil && e.V.busy()) || (l.waiting.Waiting(addr) && m != l.replaying) {
		// Strict per-line FIFO: nothing may overtake queued requests.
		l.waiting.Push(addr, m)
		return
	}
	if e == nil {
		l.missFetch(m)
		return
	}
	l.fab.CallAfter(l.cfg.L2Lat, l.doServe, m)
	l.open(&e.V, sl2LocalInv, m.Src, false)
}

func (l *SharedL2) missFetch(m *coherence.Msg) {
	addr := m.Addr.Line()
	var victim cacheset.Entry[sl2Line]
	e, evicted, ok := l.cache.Allocate(addr, func(e *cacheset.Entry[sl2Line]) bool {
		return !e.V.busy() && len(e.V.sharers) == 0 &&
			e.V.owner == coherence.NodeNone && !l.evicting(e.Addr)
	}, &victim)
	if !ok {
		// Recall the LRU idle line with local copies so the miss can
		// allocate when it is replayed.
		if cand := lruWhere(l.cache, addr, func(e *cacheset.Entry[sl2Line]) bool {
			return !e.V.busy() && !l.evicting(e.Addr)
		}); cand != nil {
			l.recallCopies(cand, sl2LocalInv)
		}
		m.Keep()
		l.stalled = append(l.stalled, m)
		return
	}
	if evicted {
		l.evict(victim.Addr, &victim.V)
	}
	wantM := m.Type == coherence.XGetM
	e.V = sl2Line{owner: coherence.NodeNone, sharers: l.spare.Get()}
	l.open(&e.V, sl2Fetch, m.Src, wantM)
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
	i := m.Src
	if m.Type == coherence.XGetS {
		if e.V.owner != coherence.NodeNone {
			// Pull the dirty copy out of the owner first.
			t.wait.Add(e.V.owner)
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
		t.wait.Add(e.V.owner)
		l.send(coherence.Msg{Type: coherence.XInv, Addr: addr, Dst: e.V.owner})
		l.LocalSharing++
	}
	for _, s := range e.V.sharers {
		if s != t.requestor {
			t.wait.Add(s)
			l.send(coherence.Msg{Type: coherence.XInv, Addr: addr, Dst: s})
		}
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
	e.V.sharers = e.V.sharers[:0]
	e.V.owner = i
	l.closeTxn(&e.V)
	l.send(coherence.Msg{Type: coherence.XDataM, Addr: addr, Dst: i,
		Data: e.V.data})
	l.wake(addr)
}

// --- writebacks from inner L1s ---

func (l *SharedL2) handlePut(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil {
		panic(fmt.Sprintf("%s: Put for absent line %v (inclusion broken)", l.name, addr))
	}
	if e.V.busy() && e.V.txn.wait.Remove(m.Src) {
		// The owner's Put crossed our Inv: absorb it as the response.
		l.absorbPut(e, m)
		l.ignoreAck[ackKey{addr, m.Src}]++
		l.advance(addr, e)
		return
	}
	if e.V.busy() {
		if e.V.owner == m.Src {
			// The owner's Put arrived in a transaction's lookup window,
			// before any Inv went out: absorb it now so the transaction
			// proceeds against current data and a cleared owner.
			l.absorbPut(e, m)
			return
		}
		l.waiting.Push(addr, m)
		return
	}
	if e.V.owner != m.Src {
		panic(fmt.Sprintf("%s: Put from non-owner %d for %v", l.name, m.Src, addr))
	}
	l.absorbPut(e, m)
	l.wake(addr)
}

// absorbPut takes the owner's written-back data into the line and acks it.
func (l *SharedL2) absorbPut(e *cacheset.Entry[sl2Line], m *coherence.Msg) {
	l.fab.FillBlock(&e.V.data, m.Data)
	e.V.dirty = true
	e.V.owner = coherence.NodeNone
	l.send(coherence.Msg{Type: coherence.XWBAck, Addr: e.Addr, Dst: m.Src})
}

func (l *SharedL2) handleInvResp(m *coherence.Msg) {
	addr := m.Addr.Line()
	if m.Type == coherence.XInvAck {
		if k := (ackKey{addr, m.Src}); l.ignoreAck[k] > 0 {
			if l.ignoreAck[k]--; l.ignoreAck[k] == 0 {
				delete(l.ignoreAck, k)
			}
			return
		}
	}
	e := l.cache.Peek(addr)
	if e == nil || !e.V.busy() {
		panic(fmt.Sprintf("%s: inv response with no transaction: %v", l.name, m))
	}
	if !e.V.txn.wait.Remove(m.Src) {
		panic(fmt.Sprintf("%s: unexpected inv response from %d for %v", l.name, m.Src, addr))
	}
	if m.Type == coherence.XInvWB {
		l.fab.FillBlock(&e.V.data, m.Data)
		e.V.dirty = true
		e.V.owner = coherence.NodeNone
	} else if e.V.owner == m.Src {
		e.V.owner = coherence.NodeNone
	}
	e.V.sharers.Remove(m.Src)
	l.advance(addr, e)
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
		l.closeTxn(&e.V)
		v := e.V
		l.cache.Invalidate(addr)
		l.evict(addr, &v)
		l.wake(addr)
		l.replayStalled()
	case sl2Recall:
		l.finishRecall(addr, e)
	}
}

// --- Crossing Guard interactions ---

func (l *SharedL2) handleGrant(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil || e.V.kind() != sl2Fetch {
		panic(fmt.Sprintf("%s: grant with no fetch: %v", l.name, m))
	}
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

func (l *SharedL2) handleAInv(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil {
		// Nothing held — or, with our Put in flight, a Put/Inv race the
		// guard resolves from the Put's data.
		l.send(coherence.Msg{Type: coherence.AInvAck, Addr: addr, Dst: l.xg})
		return
	}
	switch e.V.kind() {
	case sl2Idle:
		// Stable line: recall every local copy, then answer the guard.
		l.recallCopies(e, sl2Recall)
	case sl2Fetch:
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
	l.invalidateCopies(e)
	l.advance(e.Addr, e)
}

// invalidateCopies sends XInv to every inner L1 holding the line — sharers
// in ascending order, then the owner — and has the transaction wait for
// each one's response.
func (l *SharedL2) invalidateCopies(e *cacheset.Entry[sl2Line]) {
	for _, s := range e.V.sharers {
		e.V.txn.wait.Add(s)
		l.send(coherence.Msg{Type: coherence.XInv, Addr: e.Addr, Dst: s})
	}
	if e.V.owner != coherence.NodeNone {
		e.V.txn.wait.Add(e.V.owner)
		l.send(coherence.Msg{Type: coherence.XInv, Addr: e.Addr, Dst: e.V.owner})
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
	l.invalidateCopies(e)
	e.V.owner = coherence.NodeNone
	e.V.host = AI // whatever we held is gone; the grant re-establishes
	l.advance(addr, e)
}

func (l *SharedL2) finishRecall(addr mem.Addr, e *cacheset.Entry[sl2Line]) {
	host, data, dirty := e.V.host, e.V.data, e.V.dirty
	l.closeTxn(&e.V)
	l.spare.Put(e.V.sharers)
	l.cache.Invalidate(addr)
	l.answerInv(addr, host, dirty, data)
}

// evict writes a line that has left the cache back to the guard and takes
// its sharer set's storage.
func (l *SharedL2) evict(addr mem.Addr, v *sl2Line) {
	l.putToGuard(addr, v.host, v.dirty, v.data)
	l.spare.Put(v.sharers)
}

// OpenTxns reports the lines with a transaction open (none at quiesce).
func (l *SharedL2) OpenTxns() int { return l.txns.Live() }

// Outstanding reports open transactions and queued work.
func (l *SharedL2) Outstanding() int {
	return l.txns.Live() + l.invs.Len() + len(l.evictions) + len(l.stalled) + l.waiting.Len()
}

// Coverage returns the L2's (state, event) coverage.
func (l *SharedL2) Coverage() *coherence.Coverage { return l.Cov }

// Held reports idle lines for invariant checks: the hierarchy's claim
// toward the host, and the L2's data view.
func (l *SharedL2) Held(fn chassis.HeldFunc) {
	l.cache.Visit(func(e *cacheset.Entry[sl2Line]) {
		if !e.V.busy() {
			heldLine(fn, e.Addr, e.V.host, e.V.data, e.V.dirty)
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
