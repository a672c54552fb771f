package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// newRecallRig is newCoreRig with a caller-supplied guard config (the
// watchdog and quarantine tests need retries/quarantine thresholds the
// default rig leaves off).
func newRecallRig(mode Mode, cfg Config) *coreRig {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
	log := coherence.NewErrorLog()
	accel := &accelSink{id: 200, eng: eng}
	fab.Register(accel)
	fab.Register(&hostSink{id: stubHome})
	cfg.Mode = mode
	g := newGuard(40, "xg", eng, fab, 200, mesiHost, stubHome, -1, cfg, log)
	g.AttachObs(obs.NewRegistry())
	host := &stubHost{g: g}
	fab.SetInterceptor(host)
	return &coreRig{eng, fab, g, host, accel, log}
}

func countToAccel(r *coreRig, ty coherence.MsgType) int {
	n := 0
	for _, m := range r.accel.got {
		if m.Type == ty {
			n++
		}
	}
	return n
}

// A recall answered well before its deadline takes the deadline with it: no
// spurious Timeouts, no second done callback, no G2c violation, and nothing
// left queued to carry the clock to tick 1000.
func TestRecallWatchdogCanceledNeverFires(t *testing.T) {
	r := newRecallRig(Transactional, Config{Timeout: 1000, GuardLat: 1})
	calls := 0
	r.recall(0x40, viewM, func(data *mem.Block, dirty bool, viaPut bool) { calls++ })
	r.eng.RunUntil(10) // deliver the Invalidate; the watchdog waits at t=1000
	r.g.Recv(&coherence.Msg{Type: coherence.ADirtyWB, Addr: 0x40, Src: 200, Dst: 40,
		Data: mem.Zero(), Dirty: true})
	if calls != 1 {
		t.Fatalf("done called %d times after response, want 1", calls)
	}
	if end := r.eng.RunUntilQuiet(); end >= 1000 {
		t.Fatalf("went quiet at tick %d: the cancelled deadline (t=1000) held the clock open", end)
	}
	if calls != 1 {
		t.Fatalf("cancelled watchdog re-invoked done (calls=%d)", calls)
	}
	if r.g.Timeouts != 0 {
		t.Fatalf("Timeouts = %d after canceled watchdog, want 0", r.g.Timeouts)
	}
	if r.g.errors != 0 {
		t.Fatalf("violations = %d, want 0", r.g.errors)
	}
}

// The deadline of a closed recall must not fire against a LATER recall of
// the same address: it was cancelled, and the later recall has its own.
func TestRecallWatchdogStaleTimerIgnoresReusedAddress(t *testing.T) {
	r := newRecallRig(Transactional, Config{Timeout: 1000, GuardLat: 1})
	calls := 0
	done := func(data *mem.Block, dirty bool, viaPut bool) { calls++ }
	r.recall(0x40, viewS, done)
	r.eng.RunUntil(5)
	r.g.Recv(&coherence.Msg{Type: coherence.AInvAck, Addr: 0x40, Src: 200, Dst: 40})
	// Second recall for the same line before the first deadline's tick
	// (t=1000); its own lands at t=1005.
	r.recall(0x40, viewS, done)
	r.eng.RunUntil(500)
	r.g.Recv(&coherence.Msg{Type: coherence.AInvAck, Addr: 0x40, Src: 200, Dst: 40})
	r.eng.RunUntilQuiet()
	if calls != 2 {
		t.Fatalf("done calls = %d, want 2", calls)
	}
	if r.g.Timeouts != 0 || r.g.errors != 0 {
		t.Fatalf("stale timer charged the later recall: Timeouts=%d errors=%d",
			r.g.Timeouts, r.g.errors)
	}
	if openRecalls(r.g) != 0 {
		t.Fatalf("%d host transactions left open", openRecalls(r.g))
	}
}

// An expired deadline with retries configured re-sends Invalidate instead
// of declaring a 2c timeout; an answer to the retry completes the recall
// with no timeout and no violation.
func TestRecallRetryThenSuccess(t *testing.T) {
	r := newRecallRig(Transactional, Config{Timeout: 100, GuardLat: 1, RecallRetries: 2})
	calls := 0
	r.recall(0x40, viewS, func(data *mem.Block, dirty bool, viaPut bool) { calls++ })
	r.eng.RunUntil(150) // first deadline (t=100) expires: one retry goes out
	if counted(r.g, "guard.recall.retry") != 1 {
		t.Fatalf("retries = %d after first deadline, want 1", counted(r.g, "guard.recall.retry"))
	}
	if got := countToAccel(r, coherence.AInv); got != 2 {
		t.Fatalf("accel saw %d Invalidates, want 2 (original + retry)", got)
	}
	r.g.Recv(&coherence.Msg{Type: coherence.AInvAck, Addr: 0x40, Src: 200, Dst: 40})
	r.eng.RunUntilQuiet() // the doubled deadline (t=300) went with the recall
	if calls != 1 {
		t.Fatalf("done calls = %d, want 1", calls)
	}
	if r.g.Timeouts != 0 || r.g.errors != 0 {
		t.Fatalf("successful retry still charged: Timeouts=%d errors=%d",
			r.g.Timeouts, r.g.errors)
	}
}

// Exhausted retries fall back to the single Guarantee 2c timeout: exactly
// one Timeout, one violation, one done callback, however many timers were
// armed along the way.
func TestRecallRetriesExhaustedSingleTimeout(t *testing.T) {
	r := newRecallRig(Transactional, Config{Timeout: 100, GuardLat: 1, RecallRetries: 2})
	calls := 0
	var gotData *mem.Block
	r.recall(0x40, viewM, func(data *mem.Block, dirty bool, viaPut bool) {
		calls++
		gotData = data
	})
	r.eng.RunUntilQuiet() // deadlines at 100, 300, 700; nobody answers
	if counted(r.g, "guard.recall.retry") != 2 {
		t.Fatalf("retries = %d, want 2", counted(r.g, "guard.recall.retry"))
	}
	if got := countToAccel(r, coherence.AInv); got != 3 {
		t.Fatalf("accel saw %d Invalidates, want 3", got)
	}
	if r.g.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want exactly 1", r.g.Timeouts)
	}
	if r.g.errors != 1 {
		t.Fatalf("violations = %d, want 1 (the G2c)", r.g.errors)
	}
	if calls != 1 || gotData == nil {
		t.Fatalf("done calls=%d data=%v, want one zero-block answer", calls, gotData)
	}
	if openRecalls(r.g) != 0 {
		t.Fatal("timed-out recall left open")
	}
}

// quarantineRig trips the guard into quarantine via repeated Guarantee 1a
// violations (Puts for blocks never granted).
func tripQuarantine(t *testing.T, r *coreRig, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r.fromAccel(coherence.APutM, mem.Addr(0x2000+i*mem.BlockBytes), mem.Zero())
	}
	if !r.g.Quarantined {
		t.Fatalf("guard not quarantined after %d violations", n)
	}
}

func TestQuarantineNacksFurtherRequests(t *testing.T) {
	r := newRecallRig(FullState, Config{Timeout: 1000, GuardLat: 1, QuarantineAfter: 2})
	tripQuarantine(t, r, 2)
	blocked := counted(r.g, "guard.quarantine.nacks")
	r.fromAccel(coherence.AGetS, 0x40, nil)
	if m := r.lastToAccel(); m == nil || m.Type != coherence.ANack {
		t.Fatalf("quarantined request answered with %v, want ANack", m)
	}
	if counted(r.g, "guard.quarantine.nacks") != blocked+1 {
		t.Fatalf("quarantine nacks = %d, want %d", counted(r.g, "guard.quarantine.nacks"), blocked+1)
	}
	if len(r.host.gets) != 0 {
		t.Fatal("quarantined Get still reached the host")
	}
}

// A recall against a quarantined accelerator is answered immediately from
// trusted state: no Invalidate on the wire, no watchdog, no timeout. The
// substitution depends on the guard's view: a known owner gets the 2c
// zero-block writeback; an Unknown view (Transactional) gets a plain
// ack, so the host serves its own copy instead of adopting dirty zeros
// for a block the accelerator may have held only shared.
func TestQuarantineRecallServedFromTrustedState(t *testing.T) {
	r := newRecallRig(FullState, Config{Timeout: 1000, GuardLat: 1, QuarantineAfter: 2})
	tripQuarantine(t, r, 2)
	sent := len(r.accel.got)
	calls := 0
	var gotData *mem.Block
	gotDirty := false
	r.recall(0x40, viewM, func(data *mem.Block, dirty bool, viaPut bool) {
		calls++
		gotData, gotDirty = data, dirty
	})
	if calls != 1 || gotData == nil || !gotDirty {
		t.Fatalf("owned recall not answered synchronously with substituted data (calls=%d data=%v dirty=%v)", calls, gotData, gotDirty)
	}
	r.recall(0x80, viewUnknown, func(data *mem.Block, dirty bool, viaPut bool) {
		calls++
		gotData, gotDirty = data, dirty
	})
	if calls != 2 || gotData != nil || gotDirty {
		t.Fatalf("unknown-view recall must answer without data (calls=%d data=%v dirty=%v)", calls, gotData, gotDirty)
	}
	r.eng.RunUntilQuiet()
	if got := countToAccel(r, coherence.AInv); got != 0 {
		t.Fatalf("quarantined recall sent %d Invalidates, want 0", got)
	}
	if len(r.accel.got) != sent {
		t.Fatalf("quarantined recall sent %d extra messages", len(r.accel.got)-sent)
	}
	if r.g.Timeouts != 0 {
		t.Fatalf("Timeouts = %d, want 0", r.g.Timeouts)
	}
}

// Entering quarantine resolves every open recall, in deterministic
// (address) order, without charging 2c timeouts; the stale watchdogs for
// those recalls stay inert.
func TestQuarantineResolvesOpenRecallsInOrder(t *testing.T) {
	r := newRecallRig(FullState, Config{Timeout: 100000, GuardLat: 1, QuarantineAfter: 1})
	var order []mem.Addr
	done := func(addr mem.Addr) func(*mem.Block, bool, bool) {
		return func(data *mem.Block, dirty bool, viaPut bool) { order = append(order, addr) }
	}
	r.recall(0x80, viewUnknown, done(0x80))
	r.recall(0x40, viewUnknown, done(0x40))
	r.eng.RunUntil(10)
	r.fromAccel(coherence.APutM, 0x2000, mem.Zero()) // violation -> quarantine
	if !r.g.Quarantined {
		t.Fatal("guard not quarantined")
	}
	if len(order) != 2 || order[0] != 0x40 || order[1] != 0x80 {
		t.Fatalf("recalls resolved in order %v, want [0x40 0x80]", order)
	}
	if openRecalls(r.g) != 0 {
		t.Fatalf("%d recalls left open after quarantine", openRecalls(r.g))
	}
	r.eng.RunUntilQuiet()
	if r.g.Timeouts != 0 {
		t.Fatalf("quarantine resolution charged %d timeouts", r.g.Timeouts)
	}
	if len(order) != 2 {
		t.Fatalf("stale watchdogs re-resolved recalls: %v", order)
	}
}

// A host grant racing the quarantine is claimed by the guard as a trusted
// copy; the fenced accelerator sees nothing.
func TestQuarantineGrantRaceKeepsTrustedCopy(t *testing.T) {
	r := newRecallRig(FullState, Config{Timeout: 1000, GuardLat: 1, QuarantineAfter: 1})
	r.fromAccel(coherence.AGetS, 0x40, nil) // opens the transaction
	if len(r.host.gets) != 1 {
		t.Fatalf("gets = %d", len(r.host.gets))
	}
	tripQuarantine(t, r, 1)
	sent := len(r.accel.got)
	var blk mem.Block
	blk[3] = 7
	r.g.granted(0x40, GrantM, &blk, true)
	r.eng.RunUntilQuiet()
	if len(r.accel.got) != sent {
		t.Fatalf("grant under quarantine reached the accelerator: %v", r.lastToAccel())
	}
	if r.g.TableEntries() != 1 || tableCopies(r.g) != 1 {
		t.Fatalf("trusted copy not kept: entries=%d copies=%d",
			r.g.TableEntries(), tableCopies(r.g))
	}
	// The trusted copy now answers recalls with the granted data.
	var gotData *mem.Block
	r.recall(0x40, viewUnknown, func(data *mem.Block, dirty bool, viaPut bool) {
		if data != nil {
			gotData = data.Copy() // data is a loan for the length of the callback
		}
	})
	if gotData == nil || gotData[3] != 7 {
		t.Fatalf("recall answered with %v, want the claimed grant data", gotData)
	}
}

// A *shared* host grant racing the quarantine is claimed without a
// trusted copy: another host cache may own the line, and an S-holding
// guard volunteering data on a later forward would hand the requestor a
// second data response (host protocol violation).
func TestQuarantineGrantRaceSharedKeepsNoCopy(t *testing.T) {
	r := newRecallRig(FullState, Config{Timeout: 1000, GuardLat: 1, QuarantineAfter: 1})
	r.fromAccel(coherence.AGetS, 0x40, nil)
	tripQuarantine(t, r, 1)
	var blk mem.Block
	blk[3] = 7
	r.g.granted(0x40, GrantS, &blk, false)
	r.eng.RunUntilQuiet()
	if r.g.TableEntries() != 1 || tableCopies(r.g) != 0 {
		t.Fatalf("shared grant claim: entries=%d copies=%d, want 1/0",
			r.g.TableEntries(), tableCopies(r.g))
	}
	// A later forward recalls the line and must get an ack, never data.
	called := false
	r.recall(0x40, viewS, func(data *mem.Block, dirty bool, viaPut bool) {
		called = true
		if data != nil {
			t.Fatalf("S-held line answered recall with data %v", data)
		}
	})
	if !called {
		t.Fatal("quarantine recall fast path did not resolve")
	}
}

// Late responses from a quarantined accelerator are swallowed without
// per-message G2b violation spam.
func TestQuarantineDropsLateResponsesQuietly(t *testing.T) {
	r := newRecallRig(FullState, Config{Timeout: 1000, GuardLat: 1, QuarantineAfter: 2})
	tripQuarantine(t, r, 2)
	errs := r.g.errors
	r.fromAccel(coherence.ADirtyWB, 0x40, mem.Zero())
	r.fromAccel(coherence.AInvAck, 0x80, nil)
	if r.g.errors != errs {
		t.Fatalf("late responses under quarantine raised %d violations, want 0",
			r.g.errors-errs)
	}
}

// A second host recall for a block whose first recall is still in flight
// coalesces: the accelerator sees exactly one Invalidate and both
// completion callbacks fire from the single response.
func TestRecallCoalescing(t *testing.T) {
	r := newRecallRig(FullState, Config{Timeout: 1000, GuardLat: 1})
	r.fromAccel(coherence.AGetM, 0x40, nil)
	r.g.granted(0x40, GrantM, mem.Zero(), false)
	r.eng.RunUntilQuiet()

	first, second := 0, 0
	var firstData, secondData *mem.Block
	r.recall(0x40, viewM, func(data *mem.Block, dirty bool, viaPut bool) { first++; firstData = data })
	r.recall(0x40, viewM, func(data *mem.Block, dirty bool, viaPut bool) { second++; secondData = data })
	r.eng.RunUntil(10)
	if got := countToAccel(r, coherence.AInv); got != 1 {
		t.Fatalf("accelerator saw %d Invalidates, want 1 (coalesced)", got)
	}
	if counted(r.g, "guard.recall.coalesced") != 1 {
		t.Fatalf("coalesced = %d, want 1", counted(r.g, "guard.recall.coalesced"))
	}
	var blk mem.Block
	blk[0] = 0x5A
	r.g.Recv(&coherence.Msg{Type: coherence.ADirtyWB, Addr: 0x40, Src: 200, Dst: 40,
		Data: &blk, Dirty: true})
	r.eng.RunUntilQuiet()
	if first != 1 || second != 1 {
		t.Fatalf("done calls = %d/%d, want 1/1", first, second)
	}
	if firstData == nil || secondData == nil || firstData[0] != 0x5A || secondData[0] != 0x5A {
		t.Fatalf("coalesced waiters got %v / %v, want the single response's data", firstData, secondData)
	}
	if openRecalls(r.g) != 0 {
		t.Fatalf("%d recalls left open", openRecalls(r.g))
	}
	if r.g.errors != 0 {
		t.Fatalf("violations = %d, want 0", r.g.errors)
	}
}

// Coalesced waiters complete when the recall resolves via the Put/Inv
// race too — the racing writeback answers every waiting host requestor.
func TestRecallCoalescingResolvedByPut(t *testing.T) {
	r := newRecallRig(Transactional, Config{Timeout: 1000, GuardLat: 1})
	first, second := 0, 0
	r.recall(0x40, viewUnknown, func(data *mem.Block, dirty bool, viaPut bool) {
		if !viaPut {
			t.Error("first waiter not resolved via Put")
		}
		first++
	})
	r.recall(0x40, viewUnknown, func(data *mem.Block, dirty bool, viaPut bool) {
		if !viaPut {
			t.Error("second waiter not resolved via Put")
		}
		second++
	})
	r.fromAccel(coherence.APutM, 0x40, mem.Zero())
	r.eng.RunUntilQuiet()
	if first != 1 || second != 1 {
		t.Fatalf("done calls = %d/%d, want 1/1", first, second)
	}
	if counted(r.g, "guard.recall.coalesced") != 1 {
		t.Fatalf("coalesced = %d, want 1", counted(r.g, "guard.recall.coalesced"))
	}
}

// TestMuteAcceleratorDeadlineTicks pins when a live 2c deadline fires: an
// accelerator that never answers sees each retry and the final timeout at
// exactly these ticks, at the production Timeout, whatever else is armed and
// answered around them. Line B answers (twice, 50 000 ticks apart), so its
// deadlines lapse beside the live ones of the mute lines A, C and D.
func TestMuteAcceleratorDeadlineTicks(t *testing.T) {
	const A, B, C, D mem.Addr = 0x40, 0x80, 0xc0, 0x100
	for _, tc := range []struct {
		retries int
		want    []string
	}{
		{0, []string{
			"2 A:Inv 0x40", "2 A:Inv 0x100", "9 A:Inv 0x80", "200 done 0x80 data=true",
			"302 A:Inv 0xc0", "50002 A:Inv 0x80", "50150 done 0x80 data=true",
			"100000 done 0x40 data=true", "100000 done 0x100 data=true", "100300 done 0xc0 data=true",
			"timeouts=3 retries=0 errors=3",
		}},
		{2, []string{
			"2 A:Inv 0x40", "2 A:Inv 0x100", "9 A:Inv 0x80", "200 done 0x80 data=true",
			"302 A:Inv 0xc0", "50002 A:Inv 0x80", "50150 done 0x80 data=true",
			"100002 A:Inv 0x40", "100002 A:Inv 0x100", "100302 A:Inv 0xc0",
			"300002 A:Inv 0x40", "300002 A:Inv 0x100", "300302 A:Inv 0xc0",
			"700000 done 0x40 data=true", "700000 done 0x100 data=true", "700300 done 0xc0 data=true",
			"timeouts=3 retries=6 errors=3",
		}},
	} {
		r := newRecallRig(Transactional, Config{Timeout: 100_000, GuardLat: 1, RecallRetries: tc.retries})
		var got []string
		recall := func(a mem.Addr) {
			r.recall(a, viewM, func(data *mem.Block, _, _ bool) {
				got = append(got, fmt.Sprintf("%d done %v data=%t", r.eng.Now(), a, data != nil))
			})
		}
		answer := func(a mem.Addr) {
			r.g.Recv(&coherence.Msg{Type: coherence.ADirtyWB, Addr: a, Src: 200, Dst: 40, Data: mem.Zero(), Dirty: true})
		}
		recall(A)
		recall(D) // shares every deadline tick with A, and runs after it
		r.eng.RunUntil(7)
		recall(B)
		r.eng.RunUntil(200)
		answer(B)
		r.eng.RunUntil(300)
		recall(C)
		r.eng.RunUntil(50_000)
		recall(B)
		r.eng.RunUntil(50_150)
		answer(B)
		r.eng.RunUntilQuiet()
		for i, m := range r.accel.got {
			got = append(got, fmt.Sprintf("%d %v %v", r.accel.at[i], m.Type, m.Addr))
		}
		slices.SortStableFunc(got, func(a, b string) int {
			var ta, tb int
			fmt.Sscan(a, &ta)
			fmt.Sscan(b, &tb)
			return cmp.Compare(ta, tb)
		})
		// B's lapsed deadlines (due at 100 007 and 150 000) are gone: the run
		// ends with the last thing that happened.
		var last sim.Time
		fmt.Sscan(got[len(got)-1], &last)
		if r.eng.Now() != last {
			t.Errorf("RecallRetries %d: went quiet at tick %d, after %q", tc.retries, r.eng.Now(), got[len(got)-1])
		}
		got = append(got, fmt.Sprintf("timeouts=%d retries=%d errors=%d", r.g.Timeouts, counted(r.g, "guard.recall.retry"), r.g.errors))
		if !slices.Equal(got, tc.want) {
			t.Errorf("RecallRetries %d:\n%s\nwant\n%s", tc.retries, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
