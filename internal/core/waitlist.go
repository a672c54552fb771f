package core

import (
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/sim"
)

// The per-line wait list. The paper's guard holds an accelerator request
// while the line has an in-flight host transaction or an open recall
// (§2.1–2.3). A held request is parked once, on its line's open-work record
// — one pooled record, no engine event — and every site that changes what
// it waits on calls wake: the line's accelerator transaction opening or
// closing (openTxn, closeTxn), a recall opening or closing (startRecall,
// closeRecall), and a host get or writeback retiring (finishGet,
// retirePut). wake never re-runs a request itself: the close
// sites sit in the middle of handlers that are still updating the line, so
// it only queues the line and arms one delay-0 engine event; that event
// re-runs the line's parked requests, in arrival order, through
// processAccelRequest — the same checks a fresh arrival gets, so a woken
// request may be accepted, resolve a recall, be reported, or park again.

// parkedReq is one held accelerator request.
type parkedReq struct {
	m      *coherence.Msg
	arrive sim.Time   // original arrival tick, kept across the wait
	next   *parkedReq // FIFO link while parked
}

// waitQueue is one line's parked requests in arrival order. queued marks
// a line already on the ready list, so wakes from several sites in one
// handler (finishGet retiring the get, then granted closing the transaction)
// cost one entry.
type waitQueue struct {
	head, tail *parkedReq
	queued     bool
}

// park keeps m until something it waits on changes.
func (g *Guard) park(addr mem.Addr, m *coherence.Msg, arrive sim.Time) {
	m.Keep()
	p := g.freePark.Get()
	p.m, p.arrive = m, arrive
	q := &g.workFor(addr).work.wait
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	g.parkedNow++
	g.Parked++
}

// wake queues l's parked requests, if any, for a re-run later this tick.
func (g *Guard) wake(l *line) {
	if g.parkedNow == 0 || l.work == nil {
		return
	}
	q := &l.work.wait
	if q.head == nil || q.queued {
		return
	}
	q.queued = true
	g.ready = append(g.ready, l.addr)
	if !g.wakeArmed {
		g.wakeArmed = true
		g.eng.ScheduleEvent(0, &g.wakeEv)
	}
}

// runWoken is the wake event: it re-runs the parked requests of every
// queued line. A re-run that changes the line's state wakes the requests
// that parked again before it, so the ready list can grow while it is
// walked; it is finite because a request that parks again changes nothing.
func (g *Guard) runWoken() {
	for i := 0; i < len(g.ready); i++ {
		addr := g.ready[i]
		w := g.lines[addr].work // a queued line has parked requests, which keep it
		q := w.wait
		w.wait = waitQueue{}
		for p := q.head; p != nil; {
			m, arrive, next := p.m, p.arrive, p.next
			g.freePark.Put(p)
			g.parkedNow--
			g.Woken++
			g.rerun(m, arrive)
			p = next
		}
		// A line whose requests all left without opening anything (reported
		// or dropped) may have nothing left to keep it.
		if l := g.lines[addr]; l != nil {
			g.settle(l)
		}
	}
	g.ready = g.ready[:0]
	g.wakeArmed = false
}

// ParkedNow reports the requests currently held on wait lists (zero at
// quiesce; config.System.Audit checks it).
func (g *Guard) ParkedNow() int { return g.parkedNow }
