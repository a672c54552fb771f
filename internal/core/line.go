package core

import (
	"cmp"
	"fmt"
	"slices"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
)

// The guard's record of the lines. The paper's guard keeps a tag-and-state
// entry per block the accelerator holds in Full State (§2.3.1) and an entry
// only per open transaction in Transactional (§2.3.2): the same structure,
// differing only in whether an idle line stays. Everything the guard knows
// about one block hangs off its line — the Full State residency, the
// accelerator's open transaction, the open recall, the open host get
// and host writeback, the parked requests, the InvAcks still owed — so the
// key its table (rules.go) dispatches on is one lookup.
//
// Lifetime: the first of those makes the line (workFor) and the last to go
// sends it back to the free list. settle alone decides that, and every site
// that closes something ends with it; a *line, or a pointer into its open
// work, held across a call that settles is dead: look the line up again.

// line is the guard's record of one block.
type line struct {
	addr mem.Addr
	// work is the line's open work, nil while the line is idle. A Full
	// State table holds every resident block and open work is five times
	// the size of the rest, so an idle line does not carry it.
	work *lineWork

	// Full State residency (§2.3.1), meaningful while resident: the
	// guard's trusted view of a block the accelerator holds.
	accel Grant // what the accelerator was granted (S/E/M)
	host  Grant // what the host believes this guard holds
	// copy is a trusted data copy, kept when the host granted ownership
	// of a block the accelerator may only read (Guarantee 0b) so the
	// guard can answer forwards without trusting the accelerator. It is
	// the line's own block and goes back to the block list with the
	// residency.
	copy *mem.Block
	// ignoreInvAck counts recalls of this block resolved by a racing Put;
	// the accelerator's InvAck for each (sent from B) is consumed silently.
	ignoreInvAck int32
	dirty        bool
	resident     bool
}

// lineWork is what is open on a line, recycled as one record. The two
// transaction records in it are open while their serial is nonzero; a timer
// tells the one it was armed for from whatever the storage holds later by
// that serial (timer), and a handler that reads one after closing it reads
// its own copy.
type lineWork struct {
	txn    accelTxn  // open accelerator-initiated transaction (1b)
	recall hostTxn   // open host-initiated recall (2b, 2c)
	get    hostGet   // open host get
	put    hostPut   // open host writeback
	wait   waitQueue // requests parked until one of the above changes
}

// hostGet is the host half of an accelerator Get: what the guard has
// collected of the host's responses so far (collect).
type hostGet struct {
	open bool
	kind GetKind
	// needed is the response count that completes the get (MESI: -1 until
	// the L2 announces it); got counts the responses received.
	needed, got int
	// data is the block the grant will carry, the get's own (FillBlock);
	// nil until a response brought one.
	data      *mem.Block
	dirty     bool
	fromCache bool // hammer: data is an owner's HData, which beats memory's
	shared    bool // a response said another cache keeps a copy
}

// hostPut is an open host writeback.
type hostPut struct {
	open  bool
	data  *mem.Block // the writeback's own copy (CopyBlock)
	dirty bool
	lost  bool // hammer: ownership moved via Fwd_GetM while the Put was in flight
	// accelPut marks a writeback started for an accelerator Put, whose ack
	// completes that Put. A guard-initiated one (relinquish) can be in
	// flight while the accelerator has a Get open on the same line; its
	// ack must not close that Get.
	accelPut bool
}

// workFor returns addr's line with an open-work record attached, making
// either if need be. The caller opens something on it at once: a line with
// nothing in it is a leak (CheckQuiesced).
func (g *Guard) workFor(addr mem.Addr) *line {
	l := g.lines[addr]
	if l == nil {
		l = g.freeLines.Get()
		l.addr = addr
		g.lines[addr] = l
	}
	if l.work == nil {
		l.work = g.freeWork.Get()
	}
	return l
}

// finishGet retires addr's open host get and grants the line at level with
// the block the get collected (none grants zeros).
func (g *Guard) finishGet(addr mem.Addr, level Grant, dirty bool) {
	l := g.lines[addr]
	data := l.work.get.data
	l.work.get = hostGet{}
	g.closed(l)
	g.granted(addr, level, data, dirty)
	g.fab.FreeBlock(data)
}

// closed runs where something on l has just closed: it wakes the requests
// parked behind it and gives back what the line no longer needs.
func (g *Guard) closed(l *line) {
	g.wake(l)
	g.settle(l)
}

// settle gives back l's open-work record once nothing in it is open, and l
// itself once it is also neither resident nor owed an InvAck. l is dead to
// the caller afterwards.
func (g *Guard) settle(l *line) {
	if w := l.work; w != nil {
		if w.txn.serial != 0 || w.recall.serial != 0 || w.get.open || w.put.open || w.wait.head != nil {
			return
		}
		l.work = nil
		waiters := w.recall.waiters
		g.freeWork.Put(w)
		w.recall.waiters = waiters // emptied by closeRecall; the storage stays
	}
	if !l.resident && l.ignoreInvAck == 0 {
		delete(g.lines, l.addr)
		g.freeLines.Put(l)
	}
}

// sortedLines returns the lines keep accepts, in address order: map
// iteration is randomized, and every walk that sends, resolves or reports
// must not be.
func (g *Guard) sortedLines(keep func(*line) bool) []*line {
	return g.sortInto(make([]*line, 0, len(g.lines)), keep)
}

// inspected is sortedLines on the guard's own slice, for the read-only
// walks of the audits (VisitBlocks, CheckQuiesced), which run after every
// run and so allocate nothing once warm. The next call refills the slice:
// nothing a walk calls may walk again.
func (g *Guard) inspected(keep func(*line) bool) []*line {
	g.inspect = g.sortInto(g.inspect[:0], keep)
	return g.inspect
}

func (g *Guard) sortInto(out []*line, keep func(*line) bool) []*line {
	for _, l := range g.lines {
		if keep(l) {
			out = append(out, l)
		}
	}
	slices.SortFunc(out, func(a, b *line) int { return cmp.Compare(a.addr, b.addr) })
	return out
}

// count reports how many lines keep accepts.
func (g *Guard) count(keep func(*line) bool) int {
	n := 0
	for _, l := range g.lines {
		if keep(l) {
			n++
		}
	}
	return n
}

// What a walk of the table may select by, and what a handler asks of the
// line it looked up (nil, for the second group, when the table has none).
func isResident(l *line) bool { return l.resident }
func hasCopy(l *line) bool    { return l.copy != nil }
func hasWork(l *line) bool    { return l != nil && l.work != nil }
func hasTxn(l *line) bool     { return hasWork(l) && l.work.txn.serial != 0 }
func hasRecall(l *line) bool  { return hasWork(l) && l.work.recall.serial != 0 }
func hasGet(l *line) bool     { return hasWork(l) && l.work.get.open }
func hasPut(l *line) bool     { return hasWork(l) && l.work.put.open }

// --- Full State residency: the inclusive directory of every block in the
// accelerator hierarchy. Because the interface requires PutS, the resident
// lines track exactly the accelerator's contents. ---

// grant records that the accelerator now holds l's block at level accel
// while the host believes the guard holds it at level host.
func (g *Guard) grant(l *line, accel, host Grant, keepCopy bool, data *mem.Block, dirty bool) {
	l.resident = true
	l.accel, l.host, l.dirty = accel, host, dirty
	if keepCopy {
		g.fab.FillBlock(&l.copy, data)
	} else {
		g.fab.FreeBlock(l.copy)
		l.copy = nil
	}
}

// drop ends addr's residency, if it has one (a Transactional guard's lines
// never do). The trusted copy goes back to the block list, so a caller
// still reading it must be done first.
func (g *Guard) drop(addr mem.Addr) {
	if l := g.lines[addr]; l != nil && l.resident {
		g.fab.FreeBlock(l.copy)
		l.copy, l.resident = nil, false
		g.settle(l)
	}
}

// recallThenServe answers a forward for a read-only block the guard owns
// (resident line e with a trusted copy) once the accelerator's S copy has
// died: the recall first, then c serves with the trusted data. The residency
// is gone by then, so the data is copied into the continuation now and its
// block given back after (resume).
func (g *Guard) recallThenServe(e *line, c recallCont) {
	c.copy, c.dirty = g.fab.CopyBlock(e.copy), e.dirty
	g.startRecall(e.addr, viewS, c)
}

// view is the Full State table's view of l's block at the accelerator:
// None unless l is resident. l may be nil.
func (l *line) view() viewState {
	if l == nil || !l.resident {
		return viewNone
	}
	return [...]viewState{GrantS: viewS, GrantE: viewE, GrantM: viewM}[l.accel]
}

// --- the host writeback ---

// writeback opens addr's host writeback with a copy of data and sends the
// host its put (dirty=false for PutE).
func (g *Guard) writeback(addr mem.Addr, data *mem.Block, dirty, accelPut bool) {
	p := &g.workFor(addr).work.put
	*p = hostPut{open: true, data: g.fab.CopyBlock(data), dirty: dirty, accelPut: accelPut}
	m := coherence.Msg{Type: g.host.put, Addr: addr, Src: g.id, Dst: g.home}
	if g.host.putData {
		m.Data, m.Dirty = p.data, dirty
	}
	g.send(m)
}

// relinquish starts a guard-initiated writeback, unless the line is
// already writing back: ownership given up after serving a Fwd_GetS on
// the accelerator's behalf (§3.2.1), or an owned line returned to the host
// during quarantine recovery (the fenced accelerator cannot be consulted
// and never sees an ack for it; data is the guard's trusted copy or a zero
// block, the Guarantee 2c substitution).
func (g *Guard) relinquish(addr mem.Addr, data *mem.Block, dirty bool) {
	if !hasPut(g.lines[addr]) {
		g.writeback(addr, data, dirty, false)
	}
}

// retirePut closes addr's open host writeback on the host's last word for
// it and, when the writeback was the accelerator's, completes its Put.
func (g *Guard) retirePut(addr mem.Addr) {
	l := g.lines[addr]
	accelPut := l.work.put.accelPut
	g.fab.FreeBlock(l.work.put.data)
	l.work.put = hostPut{}
	g.closed(l)
	if accelPut {
		g.putDone(addr)
	}
}

// CheckQuiesced names the first line, in address order, that should not
// outlive a quiesce: one with open work, or one that nothing keeps. What
// may remain is a resident line (Full State: TableEntries of them) and a
// line kept only by an InvAck the accelerator still owes from B. Before
// that it counts the armed watchdogs: every open recall holds exactly one
// (when Timeout is set, outside the moment its deadline is firing), so more
// than there are open recalls means a close that did not cancel its own, and
// any at all outlives the quiesce. config.System.Audit runs it.
func (g *Guard) CheckQuiesced() error {
	armed := 0
	for i := range g.watchdogs {
		armed += g.watchdogs[i].Len()
	}
	open := 0
	if g.cfg.Timeout > 0 {
		open = g.count(hasRecall)
	}
	if armed != open {
		return fmt.Errorf("%s: %d recall watchdogs armed for %d open recalls", g.name, armed, open)
	}
	for _, l := range g.inspected(func(l *line) bool {
		return l.work != nil || (!l.resident && l.ignoreInvAck == 0)
	}) {
		if w := l.work; w != nil {
			return fmt.Errorf("%s: line %v has open work at quiesce (transaction %t, recall %t, host get %t, host put %t, parked %t)",
				g.name, l.addr, w.txn.serial != 0, w.recall.serial != 0, w.get.open, w.put.open, w.wait.head != nil)
		}
		return fmt.Errorf("%s: line %v is in the table at quiesce with nothing to keep it", g.name, l.addr)
	}
	return nil
}
