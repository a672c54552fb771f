package config

import (
	"fmt"
	"strings"
	"testing"

	"crossingguard/internal/accel"
	"crossingguard/internal/coherence"
	"crossingguard/internal/fuzz"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
	"crossingguard/internal/seq"
)

// recoverySpec is the shared machine shape for the machine-level
// recovery tests: one device behind a guard, a scripted attacker as the
// device, a hair-trigger quarantine fence, and (unless overridden)
// readmission enabled.
func recoverySpec(host HostKind, org Org) Spec {
	return Spec{Host: host, Org: org, CPUs: 2, AccelCores: 1, Seed: 11,
		Small: true, Timeout: 2000, RecallRetries: 1,
		QuarantineAfter: 5, RecoverAfter: 300}
}

// tripQuarantine fires a six-message stray-response burst from att —
// each one a Guarantee 2b violation — pushing the guard past
// QuarantineAfter=5.
func tripQuarantine(att *fuzz.Attacker, base mem.Addr) {
	for i := 0; i <= 5; i++ {
		att.Send(coherence.AInvAck, base+mem.Addr(i*mem.BlockBytes), nil)
	}
}

// TestStaleEpochRejectedAfterReintegration pins the epoch fence's core
// safety property: a data reply from before the device reset that lands
// after reintegration is dropped as XG.StaleEpoch — counted, but not
// charged to the fresh device's error score and, critically, never
// written into the rebuilt block table or host memory.
func TestStaleEpochRejectedAfterReintegration(t *testing.T) {
	const line = mem.Addr(0x5400)
	for _, host := range []HostKind{HostHammer, HostMESI} {
		for _, org := range []Org{OrgXGFull1L, OrgXGTxn1L} {
			host, org := host, org
			t.Run(fmt.Sprintf("%v/%v", host, org), func(t *testing.T) {
				var att *fuzz.Attacker
				spec := recoverySpec(host, org)
				spec.CustomAccel = func(s *System, slot *CustomSlot) {
					// An attacker has no Reset, so it is not told of the
					// device reset: it stays on epoch 0 forever, and
					// everything it sends after the reset is a pre-reset
					// straggler.
					att = SlotDevice[fuzz.Attacker](slot)
					att.Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, spec.Seed, []mem.Addr{line})
				}
				sys := Build(spec)

				// A CPU establishes the line's true value, the device
				// legitimately shares it (a real table entry for the
				// recovery drain to flush), then the burst trips the fence.
				sys.CPUSeqs[0].Store(line, 7, func(*seq.Op) {
					att.Send(coherence.AGetS, line, nil)
					sys.Eng.Schedule(50, func() { tripQuarantine(att, line) })
				})
				if !sys.Eng.RunUntil(20_000_000) {
					t.Fatal("quarantine-recovery cycle did not drain")
				}
				g := sys.Guards[0]
				if g.Recoveries != 1 || g.Quarantined || g.Epoch != 1 {
					t.Fatalf("guard not cleanly reintegrated: recoveries=%d quarantined=%v epoch=%d",
						g.Recoveries, g.Quarantined, g.Epoch)
				}

				// The delayed pre-reset data reply: dirty garbage for the
				// drained line, stamped (implicitly) with epoch 0.
				before := sys.Obs.Snapshot().Counters["guard.violation.XG.StaleEpoch"]
				garbage := mem.Block{}
				garbage[0] = 0xEE
				att.Send(coherence.ADirtyWB, line, &garbage)
				if !sys.Eng.RunUntil(20_000_000) {
					t.Fatal("stale writeback did not drain")
				}
				after := sys.Obs.Snapshot().Counters["guard.violation.XG.StaleEpoch"]
				if after != before+1 {
					t.Fatalf("XG.StaleEpoch counted %d -> %d, want exactly one more drop", before, after)
				}
				if g.Quarantined {
					t.Fatal("stale straggler re-tripped quarantine; it must not touch the error score")
				}

				// No table or memory mutation: the host still serves the
				// pre-reset value, not the straggler's garbage.
				got := byte(255)
				sys.CPUSeqs[1].Load(line, func(op *seq.Op) { got = op.Result })
				if !sys.Eng.RunUntil(20_000_000) {
					t.Fatal("post-straggler load did not drain")
				}
				if got != 7 {
					t.Fatalf("post-straggler load read %d, want 7 (stale data leaked through the epoch fence)", got)
				}
				if err := sys.AuditHostOnly(); err != nil {
					t.Fatalf("post-straggler audit: %v", err)
				}
			})
		}
	}
}

// TestFlapperConvergesToPermanentQuarantine pins the health model's
// convergence: a device that keeps misbehaving after every readmission
// burns through the guard's three backed-off readmissions and lands in
// permanent quarantine, with every backoff and the final conversion
// visible as KindRecovery trace events.
func TestFlapperConvergesToPermanentQuarantine(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			spec := recoverySpec(host, OrgXGFull1L)
			spec.RecoverAfter = 200
			spec.CustomAccel = func(s *System, slot *CustomSlot) {
				SlotDevice[accel.Adversary](slot).Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, accel.AdvConfig{
					// A persistent offender: enough flaps that bursts burned
					// off while the guard is fenced (they are blocked, not
					// scored) never exhaust the pathology before the
					// readmission budget does.
					Model: accel.AdvFlapper, Seed: 99, Pool: containPool(0),
					Budget: 4000, Gap: 3,
					Flaps: 100, BurstLen: 16, FlapGap: 30,
				})
			}
			sys := Build(spec)

			var recoveryEvents []string
			sys.Fab.Bus = obs.NewBus(sinkFunc(func(e obs.Event) error {
				if e.Kind == obs.KindRecovery {
					recoveryEvents = append(recoveryEvents, e.Payload)
				}
				return nil
			}))

			if !sys.Eng.RunUntil(50_000_000) {
				t.Fatal("flapper run did not drain")
			}
			g := sys.Guards[0]
			if !g.PermanentlyQuarantined {
				t.Fatalf("guard not permanently quarantined (recoveries=%d quarantined=%v)",
					g.Recoveries, g.Quarantined)
			}
			if !g.Quarantined {
				t.Fatal("permanently quarantined guard must stay fenced")
			}
			if g.Recoveries != 3 {
				t.Fatalf("guard recovered %d times, want exactly 3", g.Recoveries)
			}
			c := sys.Obs.Snapshot().Counters
			if c["guard.recovery.backoff"] != 3 || c["guard.recovery.reintegrated"] != 3 ||
				c["guard.recovery.permanent"] != 1 {
				t.Fatalf("recovery counters backoff=%d reintegrated=%d permanent=%d, want 3/3/1",
					c["guard.recovery.backoff"], c["guard.recovery.reintegrated"],
					c["guard.recovery.permanent"])
			}
			var backoffs, permanents int
			for _, p := range recoveryEvents {
				if strings.Contains(p, "backoff") {
					// Each readmission doubles the wait: 200, 400, then 800 ticks.
					if want := fmt.Sprintf("backoff %d ticks", 200<<backoffs); !strings.Contains(p, want) {
						t.Errorf("recovery event %q, want %q in it", p, want)
					}
					backoffs++
				}
				if strings.Contains(p, "permanent") {
					permanents++
				}
			}
			if backoffs != 3 || permanents != 1 {
				t.Fatalf("trace shows %d backoff and %d permanent recovery events, want 3 and 1 (events: %q)",
					backoffs, permanents, recoveryEvents)
			}
		})
	}
}

// TestRecoveryDisabledKeepsQuarantineTerminal pins backward
// compatibility: with RecoverAfter left at its zero default, a
// quarantined guard stays quarantined forever — no epoch bump, no
// recovery counters, exactly the pre-recovery behavior.
func TestRecoveryDisabledKeepsQuarantineTerminal(t *testing.T) {
	const line = mem.Addr(0x5400)
	for _, host := range []HostKind{HostHammer, HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			var att *fuzz.Attacker
			spec := recoverySpec(host, OrgXGFull1L)
			spec.RecoverAfter = 0
			spec.CustomAccel = func(s *System, slot *CustomSlot) {
				att = SlotDevice[fuzz.Attacker](slot)
				att.Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, spec.Seed, []mem.Addr{line})
			}
			sys := Build(spec)
			att.Send(coherence.AGetS, line, nil)
			sys.Eng.Schedule(50, func() { tripQuarantine(att, line) })
			if !sys.Eng.RunUntil(20_000_000) {
				t.Fatal("run did not drain")
			}
			g := sys.Guards[0]
			if !g.Quarantined || g.Recoveries != 0 || g.Epoch != 0 {
				t.Fatalf("disabled recovery must leave quarantine terminal: quarantined=%v recoveries=%d epoch=%d",
					g.Quarantined, g.Recoveries, g.Epoch)
			}
			for name, v := range sys.Obs.Snapshot().Counters {
				if strings.HasPrefix(name, "guard.recovery.") && v != 0 {
					t.Fatalf("recovery counter %s=%d registered with recovery disabled", name, v)
				}
			}
		})
	}
}

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(obs.Event) error

func (f sinkFunc) Emit(e obs.Event) error { return f(e) }
