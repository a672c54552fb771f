package core

import (
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/sim"
)

const waitLine mem.Addr = 0x40

// accelMsg builds one accelerator->guard message for waitLine's rigs.
func accelMsg(ty coherence.MsgType, addr mem.Addr, data *mem.Block) *coherence.Msg {
	return &coherence.Msg{Type: ty, Addr: addr, Src: 200, Dst: 40, Data: data,
		Dirty: ty == coherence.APutM}
}

// parkedGetRun parks one Get behind a recall, answers the recall's
// Invalidate after delay ticks, runs to quiescence, and reports how many
// engine events the whole run executed.
func parkedGetRun(t testing.TB, delay sim.Time) uint64 {
	r := newRecallRig(Transactional, Config{GuardLat: 1})
	r.recall(waitLine, viewS, func(*mem.Block, bool, bool) {})
	r.g.Recv(accelMsg(coherence.AGetS, waitLine, nil))
	if parkedNow(r.g) != 1 {
		t.Fatalf("Get behind a recall: parked now = %d, want 1", parkedNow(r.g))
	}
	r.eng.Schedule(delay, func() { r.g.Recv(accelMsg(coherence.AInvAck, waitLine, nil)) })
	r.eng.RunUntilQuiet()
	if len(r.host.gets) != 1 || parkedNow(r.g) != 0 {
		t.Fatalf("after the InvAck: %d gets dispatched, %d parked; want 1, 0",
			len(r.host.gets), parkedNow(r.g))
	}
	return r.eng.Executed
}

// A held request costs no engine events while it waits: the event count
// and the allocation count of a run do not depend on how long the recall
// stays open.
func TestParkedRequestCostsNothingWhileWaiting(t *testing.T) {
	short, long := parkedGetRun(t, 10), parkedGetRun(t, 1000)
	if short != long {
		t.Fatalf("engine events: %d with the InvAck after 10 ticks, %d after 1000; want equal", short, long)
	}
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocsShort := testing.AllocsPerRun(10, func() { parkedGetRun(t, 10) })
	allocsLong := testing.AllocsPerRun(10, func() { parkedGetRun(t, 1000) })
	if allocsShort != allocsLong {
		t.Fatalf("allocations: %v with the InvAck after 10 ticks, %v after 1000; want equal", allocsShort, allocsLong)
	}
}

// hostSink stands in for the directory / L2: it swallows what the guard
// sends; tests hand the guard the host's replies themselves.
type hostSink struct{ id coherence.NodeID }

func (h *hostSink) ID() coherence.NodeID { return h.id }
func (h *hostSink) Name() string         { return "hostSink" }
func (h *hostSink) Recv(*coherence.Msg)  {}

// newShimRig builds a guard with its real host table ("hammer" or "mesi")
// in front of a hostSink at node 10.
func newShimRig(host string) (*sim.Engine, *Guard) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
	fab.Register(&accelSink{id: 200, eng: eng})
	fab.Register(&hostSink{id: 10})
	cfg := Config{Mode: Transactional, GuardLat: 1}
	if host == "hammer" {
		return eng, NewHammerGuard(40, "xg", eng, fab, 200, 10, 1, cfg, coherence.NewErrorLog())
	}
	return eng, NewMESIGuard(40, "xg", eng, fab, 200, 10, cfg, coherence.NewErrorLog())
}

// acceptedAt reports the tick waitLine's open accelerator transaction was
// accepted at, and its kind (ok=false when none is open).
func acceptedAt(g *Guard) (at sim.Time, kind coherence.MsgType, ok bool) {
	t := g.txnAt(waitLine)
	if t == nil {
		return 0, 0, false
	}
	return t.start, t.kind, true
}

// One case per wake edge: a request is parked, the edge closes what it
// waits on at tick closeAt, and the request must be dealt with in that
// same tick, leaving the wait list empty.
func TestWakeEdges(t *testing.T) {
	const closeAt sim.Time = 50

	// stubCase runs on the stub host: setup parks the request(s) at tick 0,
	// closing runs as an engine event at tick closeAt.
	type stubCase struct {
		name    string
		cfg     Config
		setup   func(r *coreRig)
		closing func(r *coreRig)
		check   func(t *testing.T, r *coreRig)
	}
	parkGetBehindRecall := func(r *coreRig) {
		r.recall(waitLine, viewS, func(*mem.Block, bool, bool) {})
		r.g.Recv(accelMsg(coherence.AGetS, waitLine, nil))
	}
	getAcceptedAtClose := func(t *testing.T, r *coreRig) {
		at, kind, ok := acceptedAt(r.g)
		if !ok || at != closeAt || kind != coherence.AGetS {
			t.Fatalf("open transaction = (tick %d, %v, %v), want the GetS accepted at tick %d",
				at, kind, ok, closeAt)
		}
	}
	var resolvedAt sim.Time
	var resolvedViaPut bool
	stubCases := []stubCase{
		{
			name:  "recall closed by InvAck",
			setup: parkGetBehindRecall,
			closing: func(r *coreRig) {
				r.g.Recv(accelMsg(coherence.AInvAck, waitLine, nil))
			},
			check: getAcceptedAtClose,
		},
		{
			name:  "recall closed by racing Put",
			setup: parkGetBehindRecall,
			closing: func(r *coreRig) {
				r.g.Recv(accelMsg(coherence.APutM, waitLine, mem.Zero()))
			},
			check: getAcceptedAtClose,
		},
		{
			name:    "recall closed by the 2c watchdog",
			cfg:     Config{Timeout: closeAt},
			setup:   parkGetBehindRecall,
			closing: func(r *coreRig) {}, // the watchdog armed at tick 0 fires by itself
			check: func(t *testing.T, r *coreRig) {
				if r.g.Timeouts != 1 {
					t.Fatalf("Timeouts = %d, want 1", r.g.Timeouts)
				}
				getAcceptedAtClose(t, r)
			},
		},
		{
			name:  "recall closed by the quarantine fence",
			cfg:   Config{QuarantineAfter: 1},
			setup: parkGetBehindRecall,
			closing: func(r *coreRig) {
				// A response nothing asked for (G2b) trips the fence.
				r.g.Recv(accelMsg(coherence.AInvAck, 0x1000, nil))
			},
			check: func(t *testing.T, r *coreRig) {
				if !r.g.Quarantined {
					t.Fatal("guard not quarantined")
				}
				// The request had been admitted before the fence; it runs on.
				getAcceptedAtClose(t, r)
			},
		},
		{
			name: "parked Put resolves a recall opened after it parked",
			setup: func(r *coreRig) {
				r.g.relinquish(waitLine, mem.Zero(), true) // a host writeback in flight
				r.g.Recv(accelMsg(coherence.APutM, waitLine, mem.Zero()))
			},
			closing: func(r *coreRig) {
				resolvedAt, resolvedViaPut = 0, false
				r.recall(waitLine, viewM, func(_ *mem.Block, _ bool, viaPut bool) {
					resolvedAt, resolvedViaPut = r.eng.Now(), viaPut
				})
			},
			check: func(t *testing.T, r *coreRig) {
				if resolvedAt != closeAt || !resolvedViaPut {
					t.Fatalf("recall resolved at tick %d (viaPut=%v), want tick %d by the parked Put",
						resolvedAt, resolvedViaPut, closeAt)
				}
				if openRecalls(r.g) != 0 || openTxns(r.g) != 0 {
					t.Fatalf("%d recalls, %d transactions left open", openRecalls(r.g), openTxns(r.g))
				}
			},
		},
		{
			name: "two requests on one line released in arrival order",
			setup: func(r *coreRig) {
				parkGetBehindRecall(r)
				r.g.Recv(accelMsg(coherence.AGetM, waitLine, nil))
			},
			closing: func(r *coreRig) {
				r.g.Recv(accelMsg(coherence.AInvAck, waitLine, nil))
			},
			check: func(t *testing.T, r *coreRig) {
				getAcceptedAtClose(t, r) // the GetS arrived first
				if r.log.ByCode["XG.G1b"] != 1 {
					t.Fatalf("G1b violations = %d, want 1 (the GetM behind it)", r.log.ByCode["XG.G1b"])
				}
			},
		},
	}
	for _, c := range stubCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			c.cfg.GuardLat = 1
			r := newRecallRig(Transactional, c.cfg)
			c.setup(r)
			parked := parkedNow(r.g)
			if parked == 0 {
				t.Fatal("setup parked nothing")
			}
			r.eng.Schedule(closeAt, func() { c.closing(r) })
			r.eng.RunUntil(closeAt - 1)
			if parkedNow(r.g) != parked || r.g.Woken != 0 {
				t.Fatalf("before the closing tick: %d parked, %d woken", parkedNow(r.g), r.g.Woken)
			}
			r.eng.RunUntil(closeAt) // the closing event and the wake it arms
			c.check(t, r)
			if parkedNow(r.g) != 0 || r.g.Parked != r.g.Woken {
				t.Fatalf("after the closing tick: %d parked, Parked=%d Woken=%d",
					parkedNow(r.g), r.g.Parked, r.g.Woken)
			}
			if n := parkedLines(r.g); n != 0 {
				t.Fatalf("wait list still has %d lines", n)
			}
		})
	}

	// The host tables' own retire sites, on the real tables. A guard-initiated
	// writeback (no accelerator transaction) makes the line busy; the host's
	// reply retires it.
	shimCases := []struct {
		name, host string
		busy       func(g *Guard)
		reply      *coherence.Msg
	}{
		{"shim Put retired by WBAck (hammer)", "hammer",
			func(g *Guard) { g.relinquish(waitLine, mem.Zero(), true) },
			&coherence.Msg{Type: coherence.HWBAck, Addr: waitLine, Src: 10, Dst: 40}},
		{"shim Put retired by Nack (hammer)", "hammer",
			func(g *Guard) { g.relinquish(waitLine, mem.Zero(), true) },
			&coherence.Msg{Type: coherence.HNack, Addr: waitLine, Src: 10, Dst: 40}},
		{"shim Put retired by WBAck (mesi)", "mesi",
			func(g *Guard) { g.relinquish(waitLine, mem.Zero(), true) },
			&coherence.Msg{Type: coherence.MWBAck, Addr: waitLine, Src: 10, Dst: 40}},
		// A host get in flight with a request parked behind it is a state no
		// event can observe (the get retires and the guard closes
		// the transaction in one handler), so the test builds it by hand: the
		// wake in the get's retire path must still release the request.
		{"shim Get retired by grant (hammer)", "hammer",
			func(g *Guard) { g.askHost(waitLine, GetShared) },
			&coherence.Msg{Type: coherence.HMemData, Addr: waitLine, Src: 10, Dst: 40, Data: mem.Zero()}},
		{"shim Get retired by grant (mesi)", "mesi",
			func(g *Guard) { g.askHost(waitLine, GetShared) },
			&coherence.Msg{Type: coherence.MDataS, Addr: waitLine, Src: 10, Dst: 40, Data: mem.Zero()}},
	}
	for _, c := range shimCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			eng, g := newShimRig(c.host)
			c.busy(g)
			g.Recv(accelMsg(coherence.AGetS, waitLine, nil))
			if parkedNow(g) != 1 {
				t.Fatalf("Get on a busy line: parked now = %d, want 1", parkedNow(g))
			}
			if c.reply.Type == coherence.HMemData || c.reply.Type == coherence.MDataS {
				// granted needs a transaction to close; see the case comment.
				g.serial++
				g.workFor(waitLine).work.txn = accelTxn{serial: g.serial, kind: coherence.AGetM}
			}
			eng.Schedule(closeAt, func() { g.Recv(c.reply) })
			eng.RunUntil(closeAt - 1)
			if g.Woken != 0 {
				t.Fatal("woken before the host replied")
			}
			eng.RunUntil(closeAt)
			at, kind, ok := acceptedAt(g)
			if !ok || at != closeAt || kind != coherence.AGetS {
				t.Fatalf("open transaction = (tick %d, %v, %v), want the GetS accepted at tick %d",
					at, kind, ok, closeAt)
			}
			if parkedNow(g) != 0 || g.Parked != 1 || g.Woken != 1 {
				t.Fatalf("%d parked, Parked=%d Woken=%d; want 0, 1, 1", parkedNow(g), g.Parked, g.Woken)
			}
		})
	}
}

// Outstanding counts a parked request (it has no engine event of its own,
// so deadlock detection and recovery's drain must see it), and
// reintegration refuses to run over one.
func TestParkedRequestIsOutstanding(t *testing.T) {
	r := newRecallRig(Transactional, Config{GuardLat: 1})
	r.g.relinquish(waitLine, mem.Zero(), true) // a host writeback in flight
	before := r.g.Outstanding()
	r.g.Recv(accelMsg(coherence.AGetS, waitLine, nil))
	r.eng.RunUntilQuiet()
	if r.g.Outstanding() != before+1 {
		t.Fatalf("Outstanding = %d with one parked request, want %d", r.g.Outstanding(), before+1)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reintegrate over a parked request did not panic")
		}
	}()
	r.g.reintegrate()
}
