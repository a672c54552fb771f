package core

import (
	"fmt"
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/perm"
)

// Helpers for the tests that look into the guard's table.

func openTxns(g *Guard) int { return g.count(hasTxn) }

// txnAt returns addr's open accelerator transaction, if any.
func (g *Guard) txnAt(addr mem.Addr) *accelTxn {
	if l := g.lines[addr]; hasTxn(l) {
		return &l.work.txn
	}
	return nil
}
func openRecalls(g *Guard) int { return g.count(hasRecall) }

// parkedLines counts the lines with requests on their wait list.
func parkedLines(g *Guard) int {
	return g.count(func(l *line) bool { return l.work != nil && l.work.wait.head != nil })
}

// tableCopies counts the Full State trusted copies.
func tableCopies(g *Guard) int { return g.count(hasCopy) }

// parkedNow reports the requests held on wait lists now.
func parkedNow(g *Guard) int { return int(g.Parked - g.Woken) }

// counted reads the counter name of a guard with a registry.
func counted(g *Guard, name string) uint64 { return g.obsReg.Counter(name).Value() }

// tableView drives one address's Full State residency directly, with no
// transaction behind it.
type tableView struct {
	g    *Guard
	addr mem.Addr
}

func (v tableView) grant(accel, host Grant, keepCopy bool, data *mem.Block, dirty bool) {
	l := v.g.workFor(v.addr)
	v.g.grant(l, accel, host, keepCopy, data, dirty)
	v.g.settle(l)
}

// checkRequest returns the Guarantee 1a detail the Full State table gives a
// request from the line's view, "" where it forwards the request.
func (v tableView) checkRequest(ty coherence.MsgType) string {
	r := guardRules[FullState].At(v.g.lines[v.addr].view(), guardVocab.Event(ty))
	if r.act == actForward {
		return ""
	}
	return r.detail.of(ty)
}

// The line lifecycle: a line is made by the first thing opened on its
// address, survives while anything is, and is recycled — with its open-work
// record — when the last closes, whatever the pair and whichever closes
// first.
func TestLineLifecycle(t *testing.T) {
	const A mem.Addr = 0x40
	type holder struct {
		name  string
		open  func(r *coreRig)
		close func(r *coreRig)
		held  func(l *line) bool
	}
	holders := []holder{
		{"accelerator transaction",
			func(r *coreRig) { r.g.openTxn(A, coherence.AGetS, 0) },
			func(r *coreRig) { r.g.closeTxn(r.g.lines[A]) },
			func(l *line) bool { return hasTxn(l) }},
		{"recall",
			func(r *coreRig) { r.recall(A, viewS, func(*mem.Block, bool, bool) {}) },
			func(r *coreRig) { r.g.closeRecall(r.g.lines[A], "response") },
			func(l *line) bool { return hasRecall(l) }},
		{"parked request",
			func(r *coreRig) { r.g.park(A, accelMsg(coherence.AGetS, A, nil), 0) },
			// The re-run fails Guarantee 0a (the rig's page has no access),
			// whatever else is open: the request leaves and opens nothing.
			func(r *coreRig) { r.g.wake(r.g.lines[A]); r.eng.RunUntil(r.eng.Now()) },
			func(l *line) bool { return l.work != nil && l.work.wait.head != nil }},
		{"owed InvAck",
			func(r *coreRig) { l := r.g.workFor(A); l.ignoreInvAck++; r.g.settle(l) },
			func(r *coreRig) { r.g.Recv(accelMsg(coherence.AInvAck, A, nil)) },
			func(l *line) bool { return l.ignoreInvAck > 0 }},
		{"host put",
			func(r *coreRig) { r.g.relinquish(A, mem.Zero(), true) },
			func(r *coreRig) { r.g.retirePut(A) },
			func(l *line) bool { return l.work != nil && l.work.put.open }},
		{"residency",
			func(r *coreRig) { tableView{r.g, A}.grant(GrantS, GrantS, false, nil, false) },
			func(r *coreRig) { r.g.drop(A) },
			func(l *line) bool { return l.resident }},
	}
	for i, first := range holders {
		for j, second := range holders {
			if i == j {
				continue
			}
			for _, order := range [][2]holder{{first, second}, {second, first}} {
				name := fmt.Sprintf("open %s, %s; close %s first", first.name, second.name, order[0].name)
				t.Run(name, func(t *testing.T) {
					perms := perm.NewTable()
					perms.GrantRange(0, mem.PageBytes, perm.None)
					r := newCoreRig(FullState, perms)
					g := r.g
					first.open(r)
					l := g.lines[A]
					if l == nil || !first.held(l) {
						t.Fatalf("after opening the %s: line %v", first.name, l)
					}
					second.open(r)
					if g.lines[A] != l || !first.held(l) || !second.held(l) {
						t.Fatalf("after opening the %s: line %p (was %p), held %v/%v",
							second.name, g.lines[A], l, first.held(l), second.held(l))
					}
					order[0].close(r)
					if g.lines[A] != l || order[0].held(l) || !order[1].held(l) {
						t.Fatalf("after closing the %s: line %p (was %p), held %v/%v; the %s must keep it",
							order[0].name, g.lines[A], l, order[0].held(l), order[1].held(l), order[1].name)
					}
					order[1].close(r)
					if len(g.lines) != 0 {
						t.Fatalf("after closing the %s too: %d lines left in the table", order[1].name, len(g.lines))
					}
					if *l != (line{}) {
						t.Fatalf("recycled line not zeroed: %+v", *l)
					}
					if err := g.CheckQuiesced(); err != nil {
						t.Fatal(err)
					}
					// Both records are back on their free lists: reopening the
					// address allocates neither.
					if n := g.freeLines.Free(); n != 1 {
						t.Fatalf("%d lines on the free list, want 1", n)
					}
					if got := g.workFor(A); got != l || g.freeLines.Free() != 0 || g.freeWork.Free() != 0 {
						t.Fatalf("reopening took line %p (recycled %p); free lists hold %d lines, %d work records",
							got, l, g.freeLines.Free(), g.freeWork.Free())
					}
				})
			}
		}
	}
}

// CheckQuiesced accepts what may outlive a quiesce — a resident line, a line
// owed an InvAck — and names a line with open work or with nothing at all.
func TestCheckQuiesced(t *testing.T) {
	r := newCoreRig(FullState, nil)
	g := r.g
	tableView{g, 0x80}.grant(GrantM, GrantM, false, nil, true)
	owed := g.workFor(0xc0)
	owed.ignoreInvAck++
	g.settle(owed)
	if err := g.CheckQuiesced(); err != nil {
		t.Fatalf("resident line and owed InvAck: %v", err)
	}
	g.workFor(0x100) // never filled, never settled
	r.recall(0x140, viewS, func(*mem.Block, bool, bool) {})
	if err := g.CheckQuiesced(); err == nil || !strings.Contains(err.Error(), "0x100 has open work at quiesce") {
		t.Fatalf("with two bad lines, the lower must be named: %v", err)
	}
	g.settle(g.lines[0x100])
	if err := g.CheckQuiesced(); err == nil || !strings.Contains(err.Error(), "0x140 has open work at quiesce (transaction false, recall true") {
		t.Fatalf("open recall: %v", err)
	}
	g.closeRecall(g.lines[0x140], "response")
	empty := g.workFor(0x40)
	g.freeWork.Put(empty.work)
	empty.work = nil
	if err := g.CheckQuiesced(); err == nil || !strings.Contains(err.Error(), "0x40 is in the table at quiesce with nothing to keep it") {
		t.Fatalf("empty line: %v", err)
	}
}

// An open recall holds exactly one armed deadline, and CheckQuiesced counts:
// a close that forgot to cancel leaves one more armed than recalls open (and
// that deadline panics when it fires on nothing), a recall that lost its
// deadline one fewer, and a close holding another recall's deadline — a stale
// pointer into a recycled record — is stopped at the cancel.
func TestCheckQuiescedCountsWatchdogs(t *testing.T) {
	const A, B mem.Addr = 0x40, 0x80
	done := func(*mem.Block, bool, bool) {}
	panics := func(t *testing.T, want string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Fatalf("panic %v, want one mentioning %q", r, want)
			}
		}()
		fn()
	}
	t.Run("close without cancel", func(t *testing.T) {
		r := newCoreRig(Transactional, nil)
		r.recall(A, viewS, done)
		if err := r.g.CheckQuiesced(); err == nil || !strings.Contains(err.Error(), "has open work") {
			t.Fatalf("one recall open, one deadline armed: %v", err)
		}
		l := r.g.lines[A]
		l.work.recall = hostTxn{}
		r.g.closed(l)
		if err := r.g.CheckQuiesced(); err == nil || !strings.Contains(err.Error(), "1 recall watchdogs armed for 0 open recalls") {
			t.Fatalf("deadline left armed: %v", err)
		}
		panics(t, "fired with that recall closed", func() { r.eng.RunUntilQuiet() })
	})
	t.Run("deadline lost", func(t *testing.T) {
		r := newCoreRig(Transactional, nil)
		r.recall(A, viewS, done)
		ht := &r.g.lines[A].work.recall
		ht.watchdog.Cancel()
		ht.watchdog = nil
		if err := r.g.CheckQuiesced(); err == nil || !strings.Contains(err.Error(), "0 recall watchdogs armed for 1 open recalls") {
			t.Fatalf("open recall with no deadline: %v", err)
		}
	})
	t.Run("another recall's deadline", func(t *testing.T) {
		r := newCoreRig(Transactional, nil)
		r.recall(A, viewS, done)
		r.recall(B, viewS, done)
		a, b := &r.g.lines[A].work.recall, &r.g.lines[B].work.recall
		a.watchdog, b.watchdog = b.watchdog, a.watchdog
		panics(t, "cancelled the deadline of recall", func() { r.g.closeRecall(r.g.lines[A], "response") })
	})
}

// A guard-initiated writeback in flight beside an accelerator Get: its ack
// retires the writeback and leaves the Get open (only an accelerator Put's
// writeback completes a transaction).
func TestRelinquishAckLeavesGetOpen(t *testing.T) {
	r := newCoreRig(Transactional, nil)
	r.fromAccel(coherence.AGetS, 0x40, nil)
	r.g.relinquish(0x40, mem.Zero(), true)
	r.g.retirePut(0x40)
	r.eng.RunUntilQuiet()
	if openTxns(r.g) != 1 || hasPut(r.g.lines[0x40]) {
		t.Fatalf("%d transactions open, put %v; want the Get still open and the put gone", openTxns(r.g), hasPut(r.g.lines[0x40]))
	}
	if m := r.lastToAccel(); m != nil {
		t.Fatalf("accelerator received %v for a writeback it did not ask for", m.Type)
	}
}
