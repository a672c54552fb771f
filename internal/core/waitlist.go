package core

import (
	"sort"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/sim"
)

// The per-line wait list. The paper's guard holds an accelerator request
// while the line has an in-flight host transaction or an open recall
// (§2.1–2.3). A held request is parked here once — one pooled record, no
// engine event — and every site that changes what it waits on calls wake:
// the line's accelerator transaction opening or closing (openTxn,
// closeTxn), a recall opening or closing (startRecall, closeRecall), the
// shim retiring a host get or put (hammerside.go, mesiside.go), and the
// error policy disabling the accelerator (wakeAll). wake never re-runs a
// request itself: the close sites sit in the middle of handlers that are
// still updating the block table or the shim's maps, so it only queues the
// line and arms one delay-0 engine event; that event re-runs the line's
// parked requests, in arrival order, through processAccelRequest — the
// same checks a fresh arrival gets, so a woken request may be accepted,
// resolve a recall, be reported, or park again.

// parkedReq is one held accelerator request.
type parkedReq struct {
	m      *coherence.Msg
	arrive sim.Time   // original arrival tick, kept across the wait
	next   *parkedReq // FIFO link while parked, free-list link otherwise
}

// waitQueue is one line's parked requests in arrival order. queued marks
// a line already on the ready list, so wakes from several sites in one
// handler (a shim retiring its get, then granted closing the transaction)
// cost one entry.
type waitQueue struct {
	head, tail *parkedReq
	queued     bool
}

// park holds m until something it waits on changes.
func (g *Guard) park(sh *guardShard, addr mem.Addr, m *coherence.Msg, arrive sim.Time) {
	p := g.freePark
	if p != nil {
		g.freePark = p.next
		p.next = nil
	} else {
		p = new(parkedReq)
	}
	p.m, p.arrive = m, arrive
	q := sh.parked[addr]
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	sh.parked[addr] = q
	g.parkedNow++
	g.Parked++
}

// wake queues addr's parked requests, if any, for a re-run later this
// tick.
func (g *Guard) wake(addr mem.Addr) {
	if g.parkedNow == 0 {
		return
	}
	sh := g.shard(addr)
	q, ok := sh.parked[addr]
	if !ok || q.queued {
		return
	}
	q.queued = true
	sh.parked[addr] = q
	g.ready = append(g.ready, addr)
	if !g.wakeArmed {
		g.wakeArmed = true
		g.eng.ScheduleEvent(0, &g.wakeEv)
	}
}

// wakeAll wakes every line with parked requests, in address order (map
// iteration is randomized; the re-run order must not be).
func (g *Guard) wakeAll() {
	if g.parkedNow == 0 {
		return
	}
	var addrs []mem.Addr
	for i := range g.shards {
		for a := range g.shards[i].parked {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		g.wake(a)
	}
}

// runWoken is the wake event: it re-runs the parked requests of every
// queued line. A re-run that changes the line's state wakes the requests
// that parked again before it, so the ready list can grow while it is
// walked; it is finite because a request that parks again changes nothing.
func (g *Guard) runWoken() {
	for i := 0; i < len(g.ready); i++ {
		addr := g.ready[i]
		sh := g.shard(addr)
		q := sh.parked[addr]
		delete(sh.parked, addr)
		for p := q.head; p != nil; {
			m, arrive, next := p.m, p.arrive, p.next
			p.m, p.next = nil, g.freePark
			g.freePark = p
			g.parkedNow--
			g.Woken++
			g.processAccelRequest(m, arrive)
			p = next
		}
	}
	g.ready = g.ready[:0]
	g.wakeArmed = false
}

// ParkedNow reports the requests currently held on wait lists (zero at
// quiesce; config.System.Audit checks it).
func (g *Guard) ParkedNow() int { return g.parkedNow }
