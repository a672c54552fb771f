package core

import (
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
)

// accelHolds returns the guard's view of addr at the accelerator, plus
// the resident Full State line when there is one.
//
// Full State answers from its inclusive table, where S with a trusted copy
// is a view of its own. Transactional deduces what
// it can (§2.3.2): a page with no permissions cannot be cached by the
// accelerator (this also closes the coherence side channel, §3.2);
// everything else is Unknown and requires consulting the accelerator, even
// with a Get open, since the accelerator may hold S and be upgrading.
func (g *Guard) accelHolds(addr mem.Addr) (hostKey, *line) {
	if g.cfg.Mode == FullState {
		l := g.lines[addr]
		switch v := l.view(); {
		case v == viewS && l.copy != nil:
			return hSCopy, l
		case v != viewNone:
			return hostKey(v), l
		}
		return hNone, nil
	}
	if g.cfg.Perms != nil && !g.cfg.Perms.Peek(addr).AllowsRead() {
		return hNone, nil
	}
	return hUnknown, nil
}

// startRecall obtains a block back from the accelerator: it sends the
// interface's single host request (Inv) and arms the Guarantee 2c
// watchdog; the guard's table (rules.go) takes the answer or a racing Put.
// c is the host cell that answers the host with what comes back: it is
// resumed exactly once with the recovered data (nil when the accelerator
// held none). c.req, the host node whose request
// caused the recall, only feeds span tracing's flow arrows. A recall for a
// block whose recall is in flight (two host requestors racing for the
// line) is coalesced: the accelerator sees one Invalidate, and every
// waiter completes from its answer.
func (g *Guard) startRecall(addr mem.Addr, expect viewState, c recallCont) {
	if l := g.lines[addr]; hasRecall(l) {
		ht := &l.work.recall
		g.RecallsCoalesced++
		g.obsReg.Counter("guard.recall.coalesced").Inc()
		g.emit(obs.Event{Kind: obs.KindRetry, Addr: addr, Payload: "recall coalesced onto in-flight Invalidate"})
		g.spanEvent(obs.KindSpanPhase, ht.span, addr, c.req, "coalesced")
		ht.waiters = append(ht.waiters, c)
		return
	}
	// Quarantined accelerators are never consulted: the guard answers the
	// host immediately from trusted state (Full State copy, or zero data)
	// without sending an Invalidate or arming a watchdog. No span opens:
	// nothing crosses to the accelerator.
	if g.Quarantined {
		g.obsReg.Counter("guard.quarantine.recalls").Inc()
		g.answerFenced(addr, &hostTxn{view: expect, done: c})
		return
	}
	// A Put already buffered at the guard resolves the recall at once;
	// the consumed crossing's span ends here (nothing reaches the host).
	if l := g.lines[addr]; hasTxn(l) && l.work.txn.data != nil {
		t := l.work.txn // a copy: the record goes with closeTxn, its block stays ours
		g.closeTxn(l)
		g.drop(addr)
		g.closeCrossingSpan(&t, addr, "put-consumed-by-recall")
		g.sendToAccelAfter(coherence.AWBAck, addr, nil, t.span)
		g.resume(addr, c, t.data, t.dirty)
		g.fab.FreeBlock(t.data)
		return
	}
	l := g.workFor(addr)
	ht := &l.work.recall
	waiters := ht.waiters // empty; the storage is the record's
	*ht = hostTxn{serial: g.nextSerial(), view: expect, done: c, waiters: waiters}
	g.wake(l) // a parked Put resolves the recall it now races
	g.SnoopsForwarded++
	if g.cfg.Spans {
		ht.span = g.newSpanID()
		ht.opened = g.eng.Now()
		g.spanEvent(obs.KindSpanBegin, ht.span, addr, c.req, "recall "+expect.String())
	}
	g.sendToAccelAfter(coherence.AInv, addr, nil, ht.span)
	if g.cfg.Timeout > 0 {
		// The Guarantee 2c deadline: Timeout, doubled for every Invalidate
		// re-sent (recallDeadline).
		ht.watchdog = g.watchdogs[0].Defer(deadline{addr, ht.serial, 0})
	}
}

// recallDeadline is a 2c deadline expiring, which only an open recall's does
// (closeRecall): with retries remaining the guard re-sends Invalidate and
// doubles the deadline; once retries are exhausted the 2c timeout answers on
// the accelerator's behalf.
func (g *Guard) recallDeadline(d deadline) {
	addr, attempt := d.addr, d.attempt
	l := g.lines[addr]
	if !hasRecall(l) || l.work.recall.serial != d.serial {
		panic(fmt.Sprintf("%s: a deadline of recall %d at %v fired with that recall closed", g.name, d.serial, addr))
	}
	ht := &l.work.recall
	ht.watchdog = nil // fired: the record is the lane's again
	if attempt >= g.cfg.RecallRetries {
		g.recallTimeout(addr, d.serial)
		return
	}
	g.RetriesSent++
	g.obsReg.Counter("guard.recall.retry").Inc()
	if g.fab.Bus.Active() {
		g.emit(obs.Event{Kind: obs.KindRetry, Addr: addr, Msg: coherence.AInv, To: g.accel, Span: ht.span,
			Payload: fmt.Sprintf("recall retry %d/%d", attempt+1, g.cfg.RecallRetries)})
	}
	if ht.retryAt == 0 {
		ht.retryAt = g.eng.Now()
	}
	g.spanEvent(obs.KindSpanPhase, ht.span, addr, 0,
		fmt.Sprintf("retry %d/%d", attempt+1, g.cfg.RecallRetries))
	g.sendToAccelAfter(coherence.AInv, addr, nil, ht.span)
	ht.watchdog = g.watchdogs[attempt+1].Defer(deadline{addr, ht.serial, attempt + 1})
}

// recallTimeout enforces Guarantee 2c: if the accelerator does not answer
// within the deadline, the guard answers on its behalf (zero or stale
// data) and reports the error. serial is the expired timer's.
func (g *Guard) recallTimeout(addr mem.Addr, serial uint64) {
	g.Timeouts++
	g.emit(obs.Event{Kind: obs.KindTimeout, Addr: addr, Payload: "recall watchdog fired"})
	g.violation("XG.G2c", "accelerator did not answer Invalidate within the timeout", addr)
	// The violation may have tripped quarantine, which resolves every open
	// recall — this one included — before returning.
	l := g.lines[addr]
	if !hasRecall(l) || l.work.recall.serial != serial {
		return
	}
	ht := g.closeRecall(l, "timeout")
	data, dirty, _ := hostAnswer(ht.view, false, nil, false)
	g.complete(addr, &ht, data, dirty)
	g.drop(addr)
}

// resolveRecallByPut handles the legitimate Put/Inv race (§2.1): the
// accelerator's Put and the guard's Invalidate crossed on the ordered
// link. The Put answers the host as the accelerator's response would
// (hostAnswer; a Put without data supplies nothing); the accelerator's
// InvAck (sent from B) will be consumed silently.
func (g *Guard) resolveRecallByPut(l *line, m *coherence.Msg) {
	addr := l.addr
	l.ignoreInvAck++ // before the close: the owed InvAck keeps the line
	ht := g.closeRecall(l, "put-race")
	// m.Data is read by the continuations before m goes back.
	data, dirty, bad := hostAnswer(ht.view, m.Data != nil, m.Data, m.Type == coherence.APutM)
	switch {
	case bad && ht.view.owned():
		g.violation("XG.G2a", detailOwnedNoData.of(m.Type), addr)
	case bad:
		g.violation("XG.G2a", detailSharedData.of(m.Type), addr)
	}
	g.drop(addr)
	g.sendToAccelAfter(coherence.AWBAck, addr, nil, ht.span)
	g.complete(addr, &ht, data, dirty)
}

// closeRecall retires l's open recall, cancels its deadline and returns it:
// the record is the line's and may be recycled at once, and every resolution
// path still has the recall to complete. reason names the path ("response",
// "timeout", "put-race", "quarantine") and becomes the span-end payload; the
// recall's total duration — and, for recalls that needed watchdog retries, the
// tail past the first retry — feeds the anatomy histograms.
func (g *Guard) closeRecall(l *line, reason string) hostTxn {
	addr := l.addr
	ht := l.work.recall
	l.work.recall = hostTxn{waiters: ht.waiters[:0]}
	// None is armed with Timeout off, or when it is the deadline's own
	// firing that closes the recall.
	if ht.watchdog != nil {
		if d := ht.watchdog.Cancel(); d.addr != addr || d.serial != ht.serial {
			panic(fmt.Sprintf("%s: closing recall %d at %v cancelled the deadline of recall %d at %v",
				g.name, ht.serial, addr, d.serial, d.addr))
		}
		ht.watchdog = nil
	}
	g.closed(l)
	if g.cfg.Spans && ht.span != 0 {
		observeSpan(g.mSpanRecall, float64(g.eng.Now()-ht.opened))
		if ht.retryAt != 0 {
			observeSpan(g.mSpanRetry, float64(g.eng.Now()-ht.retryAt))
		}
		g.spanEvent(obs.KindSpanEnd, ht.span, addr, 0, reason)
	}
	return ht
}

// answerRecall answers l's open recall with the accelerator's response m.
func (g *Guard) answerRecall(l *line, m *coherence.Msg) {
	addr := l.addr
	// Either writeback type is accepted from an owner; data from an M
	// block is conservatively treated as dirty. m.Data is read by the
	// continuations before m goes back.
	view := l.work.recall.view
	carries := m.Type == coherence.ACleanWB || m.Type == coherence.ADirtyWB
	data, dirty, bad := hostAnswer(view, carries, m.Data, m.Type == coherence.ADirtyWB || view == viewM)
	ht := g.closeRecall(l, "response")
	g.drop(addr)
	if bad {
		g.violation("XG.G2a", detailInconsistent.of(m.Type), addr)
	}
	g.complete(addr, &ht, data, dirty)
}

// hostAnswer is the one rule for what the host side gets back when a recall
// closes (Guarantees 2a and 2c), decided from the guard's view of the
// accelerator's copy when the recall opened. carries says the accelerator
// supplied a data-carrying message, blk its block (nil when the message
// came without one) and dirty whether that data counts as dirty. It returns
// the block the host side gets (nil for none), its dirty bit, and whether
// the supply contradicted the view (a 2a violation).
//
// A holder of at most a shared copy must not inject data: anything it
// supplied is dropped. An owner must supply data: when it supplied none
// (an InvAck, a data-less Put, silence) the guard substitutes a dirty zero
// block (§2.2). A data-carrying message without its block is malformed;
// from an owner or an Unknown view it carries zeros. Transactional guards'
// Unknown view passes any well-formed answer through and relies on the
// host modifications: answering without data lets the host serve its own
// copy, which 2c sanctions, where dirty zeros for a block the accelerator
// may have held only shared would trample the live host owner's data.
func hostAnswer(view viewState, carries bool, blk *mem.Block, dirty bool) (data *mem.Block, dirtyOut, bad bool) {
	switch {
	case view != viewUnknown && !view.owned():
		return nil, false, carries
	case carries && blk != nil:
		return blk, dirty, false
	case carries:
		return &zeroBlock, dirty, true
	case view.owned():
		return &zeroBlock, true, true
	}
	return nil, false, false
}
