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

// wkTxnKind labels open transactions at the weak shared L2.
type wkTxnKind int

const (
	wkIdle   wkTxnKind = iota // no transaction open
	wkFetch                   // guard Get outstanding
	wkRecall                  // answering a guard Invalidate
	wkEvict                   // local recall for a capacity eviction
)

// wkTxn is the open transaction on one line, a record of the L2's Txns
// the line points to while it is busy.
type wkTxn struct {
	kind    wkTxnKind
	waiters []*coherence.Msg  // XGets, kept, served once the fetch lands
	wait    coherence.NodeSet // holders whose invalidation response is outstanding
	wantM   bool
	invPend bool // guard Invalidate arrived mid-fetch; ack when local copies die
}

// wkLine is the payload of one weak-L2 line. data is the L2's own block,
// taken from the machine's block list when the grant lands and given back
// when the line leaves the cache; txn is nil while it is idle.
type wkLine struct {
	host    AState // grant held from the guard
	data    *mem.Block
	dirty   bool
	holders coherence.NodeSet // L1s that may hold (stale) copies
	txn     *wkTxn
}

func (v *wkLine) busy() bool { return v.txn != nil }

// kind is the line's open transaction, wkIdle when it is idle.
func (v *wkLine) kind() wkTxnKind {
	if v.txn == nil {
		return wkIdle
	}
	return v.txn.kind
}

// open starts line v's transaction on a record whose waiter list and wait
// set keep their storage from one transaction to the next.
func (l *WeakL2) open(v *wkLine, kind wkTxnKind, wantM bool) *wkTxn {
	t := l.txns.Get()
	*t = wkTxn{kind: kind, wantM: wantM, waiters: t.waiters[:0], wait: t.wait[:0]}
	v.txn = t
	return t
}

// closeTxn leaves line v idle and forgets the fetch's waiters.
func (l *WeakL2) closeTxn(v *wkLine) {
	clear(v.txn.waiters)
	l.txns.Put(v.txn)
	v.txn = nil
}

// WeakL2 is the shared L2 of the weakly-coherent hierarchy: it never
// invalidates sibling copies on local writes (the accelerator's explicit
// flush publishes data), but toward the host it is a fully correct
// Crossing Guard client — it acquires write permission before granting
// writable copies and recalls every holder when the guard invalidates.
type WeakL2 struct {
	l2Base // the guard side and the request queues

	cache *cacheset.Cache[wkLine]
	txns  coherence.Txns[wkTxn]
	// doServe is serveWeak bound once (CallAfter's handler).
	doServe func(*coherence.Msg)
}

// NewWeakL2 builds and registers the weak shared L2.
func NewWeakL2(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	xg coherence.NodeID, cfg Config) *WeakL2 {
	l := &WeakL2{cache: cacheset.New[wkLine](cfg.L2Sets, cfg.L2Ways)}
	l.init(id, name, fab, xg, cfg, l.Recv, l.handleAInv)
	l.doServe = l.serveWeak
	fab.Register(l)
	return l
}

// Restart returns the L2 to its just-built state for the machine's next
// run, keeping its storage. The machine's Reset calls it.
func (l *WeakL2) Restart() {
	l.reset(0)
	l.cache.Reset()
	l.txns.Reset()
}

// Recv implements coherence.Controller.
func (l *WeakL2) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.XGetS, coherence.XGetM:
		l.handleGet(m)
	case coherence.XPutM:
		l.handlePut(m)
	case coherence.XPutS:
		if e := l.cache.Peek(m.Addr); e != nil {
			e.V.holders.Remove(m.Src)
		}
	case coherence.XInvAck, coherence.XInvWB:
		l.handleInvResp(m)
	case coherence.ADataS, coherence.ADataE, coherence.ADataM:
		l.handleGrant(m)
	case coherence.AWBAck:
		l.closeEviction(m.Addr.Line(), m)
	case coherence.AInv:
		l.handleAInv(m)
	default:
		panic(fmt.Sprintf("%s: unexpected %v", l.name, m))
	}
}

// invalidate drops the line and gives its block back.
func (l *WeakL2) invalidate(e *cacheset.Entry[wkLine]) {
	l.fab.FreeBlock(e.V.data)
	l.cache.Invalidate(e.Addr)
}

func (l *WeakL2) handleGet(m *coherence.Msg) {
	addr := m.Addr.Line()
	if l.evicting(addr) {
		l.waiting.Push(addr, m)
		return
	}
	e := l.cache.Peek(addr)
	if e != nil && e.V.busy() {
		if e.V.txn.kind == wkFetch {
			// Weak model: pile additional readers/writers onto the
			// in-flight fetch instead of serializing them.
			if m.Type == coherence.XGetM {
				e.V.txn.wantM = true
				// The open fetch may be shared-only: handleGrant
				// upgrades it with a GetM once it lands.
			}
			m.Keep()
			e.V.txn.waiters = append(e.V.txn.waiters, m)
			return
		}
		l.waiting.Push(addr, m)
		return
	}
	if l.waiting.Waiting(addr) && m != l.replaying {
		l.waiting.Push(addr, m)
		return
	}
	if e == nil {
		l.missFetch(m)
		return
	}
	l.fab.CallAfter(l.cfg.L2Lat, l.doServe, m)
}

func (l *WeakL2) missFetch(m *coherence.Msg) {
	addr := m.Addr.Line()
	var victim cacheset.Entry[wkLine]
	e, evicted, ok := l.cache.Allocate(addr, func(e *cacheset.Entry[wkLine]) bool {
		return !e.V.busy() && len(e.V.holders) == 0 && !l.evicting(e.Addr)
	}, &victim)
	if !ok {
		// Recall the LRU idle line's holders so the miss can allocate when
		// it is replayed.
		if cand := lruWhere(l.cache, addr, func(e *cacheset.Entry[wkLine]) bool {
			return !e.V.busy() && !l.evicting(e.Addr)
		}); cand != nil {
			l.recallHolders(cand.Addr, cand, wkEvict)
		}
		m.Keep()
		l.stalled = append(l.stalled, m)
		return
	}
	if evicted {
		l.putToGuard(victim.Addr, victim.V.host, victim.V.dirty, victim.V.data)
	}
	wantM := m.Type == coherence.XGetM
	e.V = wkLine{host: AI}
	l.openFetch(e, wantM, m)
	ty := coherence.AGetS
	if wantM {
		ty = coherence.AGetM
	}
	l.send(coherence.Msg{Type: ty, Addr: addr, Dst: l.xg})
}

// serveWeak serves a Get against a present, idle line.
func (l *WeakL2) serveWeak(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil || e.V.busy() {
		l.fab.CallAfter(0, l.doRecv, m)
		return
	}
	if m.Type == coherence.XGetM && e.V.host == AS {
		// Need host write permission first (no sibling invalidations —
		// the weak model's whole point).
		l.openFetch(e, true, m)
		l.send(coherence.Msg{Type: coherence.AGetM, Addr: addr, Dst: l.xg})
		return
	}
	l.grant(addr, e, m)
}

// openFetch opens the line's fetch with m, kept, as its first waiter.
func (l *WeakL2) openFetch(e *cacheset.Entry[wkLine], wantM bool, m *coherence.Msg) {
	m.Keep()
	t := l.open(&e.V, wkFetch, wantM)
	t.waiters = append(t.waiters, m)
}

func (l *WeakL2) grant(addr mem.Addr, e *cacheset.Entry[wkLine], m *coherence.Msg) {
	e.V.holders.Add(m.Src)
	ty := coherence.XDataS
	if m.Type == coherence.XGetM {
		ty = coherence.XDataM
	}
	l.send(coherence.Msg{Type: ty, Addr: addr, Dst: m.Src, Data: e.V.data})
}

func (l *WeakL2) handlePut(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil {
		panic(fmt.Sprintf("%s: Put for absent line %v (inclusion broken)", l.name, addr))
	}
	// Weak merge: the flusher's whole block wins (last writer wins — the
	// documented hazard of the flush-based model).
	l.fab.FillBlock(&e.V.data, m.Data)
	e.V.dirty = true
	e.V.holders.Remove(m.Src)
	l.send(coherence.Msg{Type: coherence.XWBAck, Addr: addr, Dst: m.Src})
	if e.V.busy() && e.V.txn.wait.Remove(m.Src) {
		l.advanceWeak(addr, e)
	}
}

func (l *WeakL2) handleInvResp(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil || !e.V.busy() || !e.V.txn.wait.Remove(m.Src) {
		return // stale ack from a flush that raced the recall
	}
	e.V.holders.Remove(m.Src)
	if m.Type == coherence.XInvWB {
		l.fab.FillBlock(&e.V.data, m.Data)
		e.V.dirty = true
	}
	l.advanceWeak(addr, e)
}

func (l *WeakL2) advanceWeak(addr mem.Addr, e *cacheset.Entry[wkLine]) {
	if len(e.V.txn.wait) > 0 {
		return
	}
	switch e.V.txn.kind {
	case wkRecall:
		l.answerGuard(addr, e)
	case wkEvict:
		l.closeTxn(&e.V)
		v := e.V
		l.cache.Invalidate(addr)
		l.putToGuard(addr, v.host, v.dirty, v.data)
		l.wake(addr)
		l.replayStalled()
	}
}

func (l *WeakL2) handleGrant(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil || e.V.kind() != wkFetch {
		panic(fmt.Sprintf("%s: grant with no fetch: %v", l.name, m))
	}
	t := e.V.txn
	e.V.host = grantLevel(m.Type)
	if !e.V.dirty {
		l.fab.FillBlock(&e.V.data, m.Data)
	}
	if t.invPend {
		// A guard Invalidate raced the fetch; local copies are already
		// gone (nothing was granted), so answer now and retry waiters.
		l.send(coherence.Msg{Type: coherence.AInvAck, Addr: addr, Dst: l.xg})
		for _, wm := range t.waiters {
			l.fab.CallAfter(0, l.doRecv, wm)
		}
		// Whatever we were granted is void; drop and refetch on demand.
		l.closeTxn(&e.V)
		l.invalidate(e)
		l.wake(addr)
		return
	}
	if t.wantM && e.V.host == AS {
		// Readers piled on first and a writer joined: upgrade.
		l.send(coherence.Msg{Type: coherence.AGetM, Addr: addr, Dst: l.xg})
		return
	}
	for _, wm := range t.waiters {
		l.grant(addr, e, wm)
		l.fab.Release(wm)
	}
	l.closeTxn(&e.V)
	l.wake(addr)
}

func (l *WeakL2) handleAInv(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil {
		// Nothing held — or, with our Put in flight, a Put/Inv race the
		// guard resolves from the Put's data.
		l.send(coherence.Msg{Type: coherence.AInvAck, Addr: addr, Dst: l.xg})
		return
	}
	switch e.V.kind() {
	case wkIdle:
		l.recallHolders(addr, e, wkRecall)
	case wkFetch:
		e.V.txn.invPend = true // answered when the grant lands
	default:
		if l.invs.Waiting(addr) {
			panic(fmt.Sprintf("%s: second concurrent guard Invalidate for %v", l.name, addr))
		}
		l.invs.Push(addr, m)
	}
}

// recallHolders pulls the line out of every (possibly stale) holder.
func (l *WeakL2) recallHolders(addr mem.Addr, e *cacheset.Entry[wkLine], kind wkTxnKind) {
	t := l.open(&e.V, kind, false)
	for _, h := range e.V.holders {
		t.wait.Add(h)
		l.send(coherence.Msg{Type: coherence.XInv, Addr: addr, Dst: h})
	}
	l.advanceWeak(addr, e)
}

func (l *WeakL2) answerGuard(addr mem.Addr, e *cacheset.Entry[wkLine]) {
	host, data, dirty := e.V.host, e.V.data, e.V.dirty
	l.closeTxn(&e.V)
	l.cache.Invalidate(addr)
	l.answerInv(addr, host, dirty, data)
}

// OpenTxns reports the lines with a transaction open (none at quiesce).
func (l *WeakL2) OpenTxns() int { return l.txns.Live() }

// Outstanding reports open transactions and queued work.
func (l *WeakL2) Outstanding() int {
	return l.txns.Live() + l.invs.Len() + len(l.evictions) + len(l.stalled) + l.waiting.Len()
}

// Coverage returns nil: the weak hierarchy declares no transition table.
func (l *WeakL2) Coverage() *coherence.Coverage { return nil }

// Held reports idle lines for system audits: the hierarchy's claim toward
// the host, and the L2's data view.
func (l *WeakL2) Held(fn chassis.HeldFunc) {
	l.cache.Visit(func(e *cacheset.Entry[wkLine]) {
		if !e.V.busy() {
			heldLine(fn, e.Addr, e.V.host, e.V.data, e.V.dirty)
		}
	})
}
