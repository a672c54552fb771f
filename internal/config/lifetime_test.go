package config

import (
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/faults"
	"crossingguard/internal/fuzz"
	"crossingguard/internal/mem"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/seq"
)

// The message-lifetime tests: the pool recycles protocol messages and line
// blocks, the rule for it is in the coherence.Msg comment, and these are
// the whole-machine checks that the protocol layers follow it.

// TestLifetimeCheckStressMatrix runs one stress shard on each of the 12
// configurations twice, plain and with the lifetime check on (released
// messages and blocks poisoned and never reused), and requires the same
// result tick for tick. A component that used a message after giving it
// back would read poison in the checked run — a protocol error, a failed
// value check, or a different end time — and one that reads the next
// tenant's data in the plain run would differ from the checked one. This
// is the test-only switch for the check; the other is the -race build.
func TestLifetimeCheckStressMatrix(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		for _, org := range AllOrgs {
			spec := Spec{Host: host, Org: org}
			t.Run(spec.Name(), func(t *testing.T) {
				plain := stressShard(t, spec)
				checked, sys := stressShardOn(t, spec, func(s *System) { s.Fab.CheckLifetimes() })
				if plain != checked {
					t.Fatalf("lifetime check changed the run: plain %+v, checked %+v", plain, checked)
				}
				// Nothing is reused under the check, so everything handed
				// out was allocated.
				if st := sys.Fab.Stats(); st.MsgsMade == 0 {
					t.Fatal("checked run handed out no pooled messages")
				}
			})
		}
	}
}

// TestPoolBalanceAtQuiesce pins the pool audit: a clean run ends with
// every message returned and exactly the resident lines' blocks out
// (tester.Run calls Audit, which checks both), the pool was actually
// reused, and a message or a block that goes missing is reported.
func TestPoolBalanceAtQuiesce(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		for _, org := range AllOrgs {
			spec := Spec{Host: host, Org: org}
			t.Run(spec.Name(), func(t *testing.T) {
				res, sys := stressShardOn(t, spec, nil)
				st := sys.Fab.Stats()
				if st.MsgsOut != 0 {
					t.Fatalf("%d messages out at quiesce", st.MsgsOut)
				}
				// (Under the lifetime check — every -race build — nothing
				// is reused, by design.)
				if st.MsgsMade == 0 || (!raceflag.Enabled && st.MsgsMade > res.Stores+res.Loads) {
					t.Fatalf("pool allocated %d messages over %d memops: not pooled, or not reused",
						st.MsgsMade, res.Stores+res.Loads)
				}
				sys.Fab.Msg(coherence.Msg{Type: coherence.HAck}) // leaked on purpose
				if err := sys.Audit(); err == nil || !strings.Contains(err.Error(), "messages handed out") {
					t.Fatalf("leaked message not reported: %v", err)
				}
			})
		}
	}
	_, sys := stressShardOn(t, Spec{Host: HostMESI, Org: OrgXGFull1L}, nil)
	sys.Fab.CopyBlock(nil) // leaked on purpose
	if err := sys.Audit(); err == nil || !strings.Contains(err.Error(), "blocks out") {
		t.Fatalf("leaked block not reported: %v", err)
	}
}

// TestPoolBalanceExemptions: machines that lose messages by design pass
// the audit with an unbalanced pool. Under a fault injector a duplicated
// or corrupted message leaves the pool (one pointer delivered twice, or
// standing beside its copy) and a dropped one's transaction never closes;
// a quarantined guard leaves the fenced
// device's open transactions, and the requests kept behind them, hanging;
// a device reset drops tables full of kept messages and whole caches of
// blocks for the collector. The collector still owns all of it — a pool
// leak costs allocations, never correctness — so the audit lets them go.
func TestPoolBalanceExemptions(t *testing.T) {
	// Delay alone keeps a correct accelerator correct (the link stays
	// ordered), and a delayed message is still delivered once, as itself:
	// it stays pooled. Any other fault breaks a correct accelerator, so a
	// leak stands in for what duplicates, corruption and drops lose.
	plan := faults.Plan{Seed: 3, Delay: 0.2, MaxDelay: 50}
	_, sys := stressShardOn(t, Spec{Host: HostHammer, Org: OrgXGFull1L, Faults: &plan}, nil)
	if sys.Faults == nil || sys.Faults.Injected == 0 {
		t.Fatal("no faults injected")
	}
	if st := sys.Fab.Stats(); st.MsgsOut != 0 {
		t.Fatalf("%d delayed messages left the pool: delivered once as themselves, they should recycle", st.MsgsOut)
	}
	sys.Fab.Msg(coherence.Msg{Type: coherence.HAck})
	if err := sys.Audit(); err != nil {
		t.Fatalf("faulted machine failed the audit: %v", err)
	}

	// A device that is fenced, drained, reset and readmitted.
	var att *fuzz.Attacker
	const line = mem.Addr(0x5400)
	spec := recoverySpec(HostMESI, OrgXGFull1L)
	spec.CustomAccel = func(s *System, slot *CustomSlot) {
		att = SlotDevice[fuzz.Attacker](slot)
		att.Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, spec.Seed, []mem.Addr{line})
	}
	sys = Build(spec)
	sys.CPUSeqs[0].Store(line, 7, func(*seq.Op) {
		att.Send(coherence.AGetS, line, nil)
		sys.Eng.Schedule(50, func() { tripQuarantine(att, line) })
	})
	if !sys.Eng.RunUntil(20_000_000) {
		t.Fatal("quarantine-recovery cycle did not drain")
	}
	if g := sys.Guards[0]; g.Epoch() != 1 {
		t.Fatalf("device not reset: epoch %d", g.Epoch())
	}
	sys.Fab.Msg(coherence.Msg{Type: coherence.HAck}) // stands in for what a reset drops
	if err := sys.Audit(); err != nil {
		t.Fatalf("reset machine failed the audit: %v", err)
	}
}

// TestMissPathAllocFree: on a warmed machine, an accelerator store that
// misses, crosses the guard and recalls the line from the CPU that owns it
// — directory broadcast or L2 forward, acks, data, unblock, the guard's
// grant — and the CPU store that takes the line back, allocate no message
// and no block: every one comes off the machine's free lists.
func TestMissPathAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the lifetime check (on under -race) never reuses a message")
	}
	const line = mem.Addr(0x7000)
	for _, host := range []HostKind{HostHammer, HostMESI} {
		for _, org := range []Org{OrgXGFull1L, OrgXGTxn1L, OrgXGFull2L, OrgXGTxn2L} {
			spec := Spec{Host: host, Org: org, CPUs: 2, AccelCores: 2, Seed: 7, Small: true}
			t.Run(spec.Name(), func(t *testing.T) {
				sys := Build(spec)
				pingPong := func(v byte) {
					sys.CPUSeqs[0].Store(line, v, func(*seq.Op) {
						sys.AccelSeqs[0].Store(line+1, v, nil)
					})
					if !sys.Eng.RunUntil(sys.Eng.Now() + 1_000_000) {
						t.Fatal("ping-pong did not drain")
					}
				}
				for i := 0; i < 4; i++ {
					pingPong(byte(i))
				}
				warm := sys.Fab.Stats()
				crossings := sys.Guards[0].SnoopsForwarded
				pingPong(9)
				st := sys.Fab.Stats()
				if sys.Guards[0].SnoopsForwarded == crossings {
					t.Fatal("the CPU store did not recall the line from the accelerator")
				}
				if st.MsgsMade != warm.MsgsMade || st.BlocksMade != warm.BlocksMade {
					t.Fatalf("miss path allocated %d messages and %d blocks, want 0 and 0",
						st.MsgsMade-warm.MsgsMade, st.BlocksMade-warm.BlocksMade)
				}
				if err := sys.Audit(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
