package core

import (
	"fmt"
	"reflect"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// A timer armed for a closed transaction stays inert, and the cancelled
// deadline of a closed recall stays cancelled, whatever the recycled record
// holds afterwards: the same address reopened on the very storage the closed
// one used, or that storage serving another address while the timer's own
// address is open again on other storage. The lifetime check is on, so a
// timer that did act would dispatch poison.
func TestStaleTimersIgnoreRecycledLine(t *testing.T) {
	const A, B mem.Addr = 0x40, 0x80
	// runTo moves the clock to tick: with nothing queued it stands still.
	runTo := func(r *coreRig, tick sim.Time) {
		r.eng.ScheduleAt(tick, func() {})
		r.eng.RunUntil(tick)
	}
	rig := func(cfg Config) *coreRig {
		r := newRecallRig(Transactional, cfg)
		r.fab.CheckLifetimes()
		return r
	}
	// Each case runs twice: the recycled work record w reopened at A, and
	// reopened at B with A open again on other storage.
	each := func(t *testing.T, run func(t *testing.T, at mem.Addr)) {
		t.Run("same address", func(t *testing.T) { run(t, A) })
		t.Run("another address", func(t *testing.T) { run(t, B) })
	}
	// recycled closes nothing itself: it checks that A's line went back to
	// the free lists and that the next opening, at at, takes the work
	// record w it used.
	recycled := func(t *testing.T, r *coreRig, w *lineWork, at mem.Addr, open func(mem.Addr)) {
		t.Helper()
		if len(r.g.lines) != 0 {
			t.Fatal("line not recycled")
		}
		open(at)
		if r.g.lines[at].work != w {
			t.Fatal("the reopening did not take the recycled work record")
		}
		if at != A {
			open(A)
		}
	}
	t.Run("dispatch", func(t *testing.T) {
		each(t, func(t *testing.T, at mem.Addr) {
			r := rig(Config{GuardLat: 5})
			r.g.Recv(accelMsg(coherence.AGetS, A, nil)) // dispatch armed for tick 5
			l := r.g.lines[A]
			w := l.work
			r.g.closeTxn(l)
			recycled(t, r, w, at, func(a mem.Addr) { r.g.openTxn(a, coherence.AGetM, 0) })
			r.eng.RunUntilQuiet()
			if len(r.host.gets) != 0 || r.g.txnAt(A).fwd != 0 || r.g.txnAt(at).fwd != 0 {
				t.Fatalf("stale dispatch ran against a later transaction: %d gets", len(r.host.gets))
			}
		})
	})
	t.Run("dispatch of a Put", func(t *testing.T) {
		each(t, func(t *testing.T, at mem.Addr) {
			r := rig(Config{GuardLat: 5})
			r.g.Recv(accelMsg(coherence.APutM, A, mem.Zero())) // dispatch armed for tick 5
			w := r.g.lines[A].work
			consumed := 0
			r.recall(A, viewUnknown, func(*mem.Block, bool, bool) { consumed++ }) // takes the buffered Put
			if consumed != 1 {
				t.Fatalf("the recall did not consume the buffered Put (%d completions)", consumed)
			}
			recycled(t, r, w, at, func(a mem.Addr) {
				r.g.openTxn(a, coherence.APutM, 0).data = r.fab.CopyBlock(nil)
			})
			r.eng.RunUntilQuiet()
			if len(r.host.puts) != 0 {
				t.Fatalf("stale dispatch wrote back a later transaction's block: %d puts", len(r.host.puts))
			}
		})
	})
	// A deadline is not left to go stale: closing its recall cancels it. The
	// reopening takes the recycled work record and the lane's recycled
	// action, and the cancel must have hit neither the new owner's deadline
	// nor left the old one to fire on it.
	t.Run("watchdog", func(t *testing.T) { // one a retry re-armed, waiting in the wheel
		each(t, func(t *testing.T, at mem.Addr) {
			r := rig(Config{Timeout: 100, GuardLat: 1, RecallRetries: 1})
			calls := 0
			done := func(*mem.Block, bool, bool) { calls++ }
			r.recall(A, viewS, done) // watchdog armed for tick 100
			w := r.g.lines[A].work
			runTo(r, 150) // it expired: one retry, re-armed for tick 300
			if counted(r.g, "guard.recall.retry") != 1 {
				t.Fatalf("retries = %d at tick 150, want 1", counted(r.g, "guard.recall.retry"))
			}
			r.g.Recv(accelMsg(coherence.AInvAck, A, nil))
			r.eng.RunUntilQuiet()
			if n := r.eng.Pending(); n != 0 || r.g.CheckQuiesced() != nil {
				t.Fatalf("the closed recall left %d events queued (%v)", n, r.g.CheckQuiesced())
			}
			runTo(r, 250)
			recycled(t, r, w, at, func(a mem.Addr) { r.recall(a, viewS, done) }) // their own watchdogs: tick 350
			open := len(r.g.lines)
			runTo(r, 320) // past the cancelled deadline's tick
			if counted(r.g, "guard.recall.retry") != 1 || r.g.Timeouts != 0 || openRecalls(r.g) != open || calls != 1 {
				t.Fatalf("a cancelled watchdog acted on a later recall: retries=%d timeouts=%d open=%d calls=%d",
					counted(r.g, "guard.recall.retry"), r.g.Timeouts, openRecalls(r.g), calls)
			}
			runTo(r, 360) // past their own
			if counted(r.g, "guard.recall.retry") != uint64(1+open) || r.g.Timeouts != 0 {
				t.Fatalf("retries=%d timeouts=%d at tick 360, want %d, 0: the reopened recalls' deadlines are due at 350",
					counted(r.g, "guard.recall.retry"), r.g.Timeouts, 1+open)
			}
			r.g.Recv(accelMsg(coherence.AInvAck, A, nil))
			if at != A {
				r.g.Recv(accelMsg(coherence.AInvAck, at, nil))
			}
			if end := r.eng.RunUntilQuiet(); end >= 550 {
				t.Fatalf("the run ended at tick %d: a cancelled deadline (due 550) held the clock open", end)
			}
			if calls != 1+open || r.g.Timeouts != 0 || r.g.errors != 0 || len(r.g.lines) != 0 || r.g.CheckQuiesced() != nil {
				t.Fatalf("calls=%d timeouts=%d errors=%d lines=%d quiesced=%v, want %d, 0, 0, 0, <nil>",
					calls, r.g.Timeouts, r.g.errors, len(r.g.lines), r.g.CheckQuiesced(), 1+open)
			}
		})
	})
	t.Run("cancelled watchdog", func(t *testing.T) { // a first deadline, waiting in the far heap
		each(t, func(t *testing.T, at mem.Addr) {
			r := rig(Config{Timeout: 1000, GuardLat: 1})
			calls := 0
			done := func(*mem.Block, bool, bool) { calls++ }
			r.recall(A, viewS, done) // watchdog armed for tick 1000
			w := r.g.lines[A].work
			runTo(r, 10)
			r.g.Recv(accelMsg(coherence.AInvAck, A, nil)) // closed: cancelled
			runTo(r, 20)
			recycled(t, r, w, at, func(a mem.Addr) { r.recall(a, viewS, done) }) // their own watchdogs: tick 1020
			open := len(r.g.lines)
			runTo(r, 1010) // past the cancelled deadline's tick
			if r.g.Timeouts != 0 || openRecalls(r.g) != open || calls != 1 || r.g.CheckQuiesced() == nil {
				t.Fatalf("a cancelled watchdog acted on a later recall: timeouts=%d open=%d calls=%d", r.g.Timeouts, openRecalls(r.g), calls)
			}
			r.eng.RunUntilQuiet() // nobody answers: each times out on its own deadline
			if r.eng.Now() != 1020 || r.g.Timeouts != uint64(open) || calls != 1+open || len(r.g.lines) != 0 || r.g.CheckQuiesced() != nil {
				t.Fatalf("went quiet at tick %d with timeouts=%d calls=%d lines=%d quiesced=%v, want 1020, %d, %d, 0, <nil>",
					r.eng.Now(), r.g.Timeouts, calls, len(r.g.lines), r.g.CheckQuiesced(), open, 1+open)
			}
		})
	})
	t.Run("rate-limit wait", func(t *testing.T) {
		each(t, func(t *testing.T, at mem.Addr) {
			r := rig(Config{GuardLat: 1, Rate: NewRateLimit(1, 50)})
			fromAccel := func(ty coherence.MsgType, a mem.Addr) {
				r.fab.Send(r.fab.Msg(coherence.Msg{Type: ty, Addr: a, Src: 200, Dst: 40}))
			}
			fromAccel(coherence.AGetS, A) // admitted on arrival, tick 1
			fromAccel(coherence.AGetM, A) // arrives with it and must wait about 50 ticks
			r.eng.RunUntil(10)
			if r.g.RateDelayed != 1 || len(r.host.gets) != 1 {
				t.Fatalf("RateDelayed=%d gets=%d at tick 10, want 1, 1", r.g.RateDelayed, len(r.host.gets))
			}
			w := r.g.lines[A].work
			r.g.closeTxn(r.g.lines[A])
			if len(r.g.lines) != 0 {
				t.Fatal("line not recycled")
			}
			r.g.openTxn(at, coherence.AGetM, 0)
			if r.g.lines[at].work != w {
				t.Fatal("the reopening did not take the recycled work record")
			}
			r.eng.RunUntilQuiet()
			// The waiting request runs against what is there when its wait
			// ends, and is still the message that was sent.
			if at == A {
				if n := r.log.ByCode["XG.G1b"]; n != 1 || len(r.host.gets) != 1 {
					t.Fatalf("request behind the reopened transaction: %d G1b reports, %d gets; want 1, 1", n, len(r.host.gets))
				}
			} else if len(r.host.gets) != 2 || r.host.gets[1].addr != A || r.host.gets[1].kind != GetExcl || r.log.Count() != 0 {
				t.Fatalf("request for the closed line: gets %+v, errors %v; want a second, exclusive get for A", r.host.gets, r.log.Errors)
			}
		})
	})
}

// sent is one host-side message as a recording node saw it.
type sent struct {
	Type   coherence.MsgType
	Dst    coherence.NodeID
	Data   int // first data byte, -1 without data
	Dirty  bool
	Shared bool
}

func (s sent) String() string {
	return fmt.Sprintf("%v->%d data=%d dirty=%t shared=%t", s.Type, s.Dst, s.Data, s.Dirty, s.Shared)
}

// recorder is a host node that appends what it receives to a shared log.
type recorder struct {
	id  coherence.NodeID
	log *[]sent
}

func (h *recorder) ID() coherence.NodeID { return h.id }
func (h *recorder) Name() string         { return "recorder" }
func (h *recorder) Recv(m *coherence.Msg) {
	s := sent{Type: m.Type, Dst: h.id, Data: -1, Dirty: m.Dirty, Shared: m.Shared}
	if m.Data != nil {
		s.Data = int(m.Data[0])
	}
	*h.log = append(*h.log, s)
}

// Each recalling cell of the two host tables answers the host with what
// the hand-written handler it replaced sent. A row names the guard state and
// the host request whose cell leaves itself as the continuation; the
// request arrives twice, from two requestors, so the second coalesces onto
// the first's recall; the recall then resolves with data, without (where the
// core can resume it so), and by a racing Put, whose data reaches the cell
// as a response's does, and both requestors must be answered, in order. The
// resolution is handed to resume directly: Guarantee 2a would correct some
// of these before a continuation saw them.
func TestRecallContinuations(t *testing.T) {
	const (
		line       = mem.Addr(0x4000)
		home       = coherence.NodeID(10) // directory / L2
		r1, r2     = coherence.NodeID(11), coherence.NodeID(12)
		copyByte   = 0xC0 // the guard's trusted copy
		answerByte = 0xDA // what the accelerator answered with
	)
	type resolution struct {
		name string
		data bool
	}
	resolutions := []resolution{{"data", true}, {"no data", false}, {"via Put", true}}

	// What one continuation sends for requestor r, given the resolution.
	type answer func(r coherence.NodeID, data bool) []sent
	hData := func(r coherence.NodeID, b int, dirty bool) sent {
		return sent{coherence.HData, r, b, dirty, true}
	}
	hPut := sent{coherence.HPut, home, -1, false, false}
	copyToL2 := func(b int, dirty bool) sent { return sent{coherence.MCopyToL2, home, b, dirty, false} }

	rows := []struct {
		host       string
		name       string
		mode       Mode
		accel      Grant // Full State residency before the request (host view M)
		resident   bool
		copy       bool
		fwd        coherence.MsgType
		fromHome   bool // the request names no requestor: the answer goes home
		want       recallCont
		answer     answer
		relinquish bool // the first answer with data also opens a host writeback
		// alwaysData: the core never resumes this continuation without data
		// (it answers for an owner that supplied none), so no "no data" row.
		alwaysData bool
	}{
		{host: "hammer", name: "Fwd_GetM to a sharer", mode: FullState, resident: true, accel: GrantS,
			fwd: coherence.HFwdGetM, want: recallCont{do: hammerRules.At(hS, hammerVocab.Event(coherence.HFwdGetM))},
			answer: func(r coherence.NodeID, data bool) []sent {
				if data {
					return []sent{hData(r, answerByte, true)}
				}
				return []sent{{coherence.HAck, r, -1, false, false}}
			}},
		{host: "hammer", name: "Fwd_GetS to an owner", mode: FullState, resident: true, accel: GrantM,
			fwd: coherence.HFwdGetS, want: recallCont{do: hammerRules.At(hM, hammerVocab.Event(coherence.HFwdGetS))}, relinquish: true, alwaysData: true,
			answer: func(r coherence.NodeID, _ bool) []sent { return []sent{hData(r, answerByte, true)} }},
		{host: "hammer", name: "Fwd_GetM to an owner", mode: FullState, resident: true, accel: GrantM,
			fwd: coherence.HFwdGetM, want: recallCont{do: hammerRules.At(hM, hammerVocab.Event(coherence.HFwdGetM))}, alwaysData: true,
			answer: func(r coherence.NodeID, _ bool) []sent { return []sent{hData(r, answerByte, true)} }},
		{host: "hammer", name: "Fwd_GetS, Transactional", mode: Transactional,
			fwd: coherence.HFwdGetS, want: recallCont{do: hammerRules.At(hUnknown, hammerVocab.Event(coherence.HFwdGetS))}, relinquish: true,
			answer: func(r coherence.NodeID, data bool) []sent {
				if data {
					return []sent{hData(r, answerByte, true)}
				}
				return []sent{{coherence.HAck, r, -1, false, false}}
			}},
		{host: "hammer", name: "Fwd_GetM, Transactional", mode: Transactional,
			fwd: coherence.HFwdGetM, want: recallCont{do: hammerRules.At(hUnknown, hammerVocab.Event(coherence.HFwdGetM))},
			answer: func(r coherence.NodeID, data bool) []sent {
				if data {
					return []sent{hData(r, answerByte, true)}
				}
				return []sent{{coherence.HAck, r, -1, false, false}}
			}},
		{host: "hammer", name: "Fwd_GetM to a guard-owned read-only block", mode: FullState, resident: true, accel: GrantS, copy: true,
			fwd: coherence.HFwdGetM, want: recallCont{do: hammerRules.At(hSCopy, hammerVocab.Event(coherence.HFwdGetM)), dirty: true},
			answer: func(r coherence.NodeID, _ bool) []sent { return []sent{hData(r, copyByte, true)} }},
		{host: "mesi", name: "Inv", mode: FullState, resident: true, accel: GrantS,
			fwd: coherence.MInv, want: recallCont{do: mesiRules.At(hS, mesiVocab.Event(coherence.MInv))},
			answer: func(r coherence.NodeID, data bool) []sent {
				if data {
					return []sent{copyToL2(answerByte, true)}
				}
				return []sent{{coherence.MInvAck, r, -1, false, false}}
			}},
		{host: "mesi", name: "InvToL2", mode: FullState, resident: true, accel: GrantM,
			fwd: coherence.MInvToL2, fromHome: true, want: recallCont{do: mesiRules.At(hM, mesiVocab.Event(coherence.MInvToL2))},
			answer: func(_ coherence.NodeID, data bool) []sent {
				if data {
					return []sent{copyToL2(answerByte, true)}
				}
				return []sent{{coherence.MInvAckToL2, home, -1, false, false}}
			}},
		{host: "mesi", name: "InvToL2 of a guard-owned read-only block", mode: FullState, resident: true, accel: GrantS, copy: true,
			fwd: coherence.MInvToL2, fromHome: true, want: recallCont{do: mesiRules.At(hSCopy, mesiVocab.Event(coherence.MInvToL2)), dirty: true},
			answer: func(coherence.NodeID, bool) []sent { return []sent{copyToL2(copyByte, true)} }},
		{host: "mesi", name: "Fwd_GetS", mode: FullState, resident: true, accel: GrantM,
			fwd: coherence.MFwdGetS, want: recallCont{do: mesiRules.At(hM, mesiVocab.Event(coherence.MFwdGetS))},
			answer: func(r coherence.NodeID, data bool) []sent {
				if data {
					return []sent{{coherence.MDataOwner, r, answerByte, true, false}, copyToL2(answerByte, true)}
				}
				return []sent{{coherence.MInvAck, r, -1, false, false}, copyToL2(0, false)}
			}},
		{host: "mesi", name: "Fwd_GetM", mode: Transactional,
			fwd: coherence.MFwdGetM, want: recallCont{do: mesiRules.At(hUnknown, mesiVocab.Event(coherence.MFwdGetM))},
			answer: func(r coherence.NodeID, data bool) []sent {
				if data {
					return []sent{{coherence.MDataOwner, r, answerByte, true, false}}
				}
				return []sent{{coherence.MInvAck, r, -1, false, false}}
			}},
		{host: "mesi", name: "Fwd_GetM to a guard-owned read-only block", mode: FullState, resident: true, accel: GrantS, copy: true,
			fwd: coherence.MFwdGetM, want: recallCont{do: mesiRules.At(hSCopy, mesiVocab.Event(coherence.MFwdGetM)), dirty: true},
			answer: func(r coherence.NodeID, _ bool) []sent {
				return []sent{{coherence.MDataOwner, r, copyByte, true, false}}
			}},
	}
	reached := map[hostRule]bool{}
	for _, row := range rows {
		reached[*row.want.do] = true
		for _, res := range resolutions {
			if row.alwaysData && !res.data {
				continue
			}
			t.Run(row.host+"/"+row.name+"/"+res.name, func(t *testing.T) {
				eng := sim.NewEngine()
				fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
				fab.CheckLifetimes()
				fab.Register(&accelSink{id: 200, eng: eng})
				var log []sent
				for _, id := range []coherence.NodeID{home, r1, r2} {
					fab.Register(&recorder{id, &log})
				}
				cfg := Config{Mode: row.mode, GuardLat: 1}
				var g *Guard
				if row.host == "hammer" {
					g = NewHammerGuard(40, "xg", eng, fab, 200, home, 1, cfg, coherence.NewErrorLog())
				} else {
					g = NewMESIGuard(40, "xg", eng, fab, 200, home, cfg, coherence.NewErrorLog())
				}
				g.AttachObs(obs.NewRegistry())
				if row.resident {
					trusted := mem.Block{copyByte}
					tableView{g, line}.grant(row.accel, GrantM, row.copy, &trusted, true)
				}

				reqs := []coherence.NodeID{r1, r2}
				for _, r := range reqs {
					g.Recv(&coherence.Msg{Type: row.fwd, Addr: line, Src: home, Dst: 40, Requestor: r})
				}
				l := g.lines[line]
				if !hasRecall(l) || counted(g, "guard.recall.coalesced") != 1 || len(l.work.recall.waiters) != 1 {
					t.Fatalf("after two requests: recall open %t, %d coalesced", hasRecall(l), counted(g, "guard.recall.coalesced"))
				}
				for i, got := range []recallCont{l.work.recall.done, l.work.recall.waiters[0]} {
					want := row.want
					want.req = reqs[i]
					if row.fromHome {
						want.req = home
					}
					if (got.copy != nil) != row.copy || (row.copy && got.copy[0] != copyByte) {
						t.Fatalf("continuation %d carries copy %v", i, got.copy)
					}
					got.copy = nil
					if got != want {
						t.Fatalf("continuation %d is %+v, want %+v", i, got, want)
					}
				}

				var data *mem.Block
				if res.data {
					data = &mem.Block{answerByte}
				}
				ht := g.closeRecall(l, "response")
				g.drop(line)
				for _, c := range append([]recallCont{ht.done}, ht.waiters...) {
					g.resume(line, c, data, res.data)
				}
				eng.RunUntilQuiet()

				var want []sent
				for i, r := range reqs {
					want = append(want, row.answer(r, res.data)...)
					if row.relinquish && i == 0 && res.data {
						want = append(want, hPut) // the second finds the line already writing back
					}
				}
				// One ordered channel per destination: compare per node.
				for _, id := range []coherence.NodeID{home, r1, r2} {
					if got, w := to(log, id), to(want, id); !reflect.DeepEqual(got, w) {
						t.Errorf("node %d received %v, want %v", id, got, w)
					}
				}
				puts := 0
				if hasPut(g.lines[line]) {
					puts = 1
				}
				if st := fab.Stats(); st.BlocksOut != puts {
					t.Errorf("%d blocks out with %d writebacks open: a continuation's copy leaked", st.BlocksOut, puts)
				}
			})
		}
	}
	for _, rules := range []*coherence.Rules[hostKey, hostRule]{hammerRules, mesiRules} {
		for _, r := range rules.Rows {
			if (r.Do.act == doRecall || r.Do.act == doServe) && !reached[r.Do] {
				t.Errorf("%s: no row reaches the continuation %+v", rules.Class, r.Do)
			}
		}
	}
}

// to selects the messages of log received by node id.
func to(log []sent, id coherence.NodeID) []sent {
	var out []sent
	for _, s := range log {
		if s.Dst == id {
			out = append(out, s)
		}
	}
	return out
}
