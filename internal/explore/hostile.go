// Quarantine-era race: the deterministic grid sweep of the timing
// between QuarantineAfter-triggered fencing and an in-flight shared
// grant. A guard that fences its accelerator while a data grant is
// still crossing must reconcile the two: the host has handed the line
// out, the quarantine says the accelerator no longer answers, and the
// reclaim path has to bring the data home without hanging the host or
// corrupting it. This is exactly the bug shape the guard's
// grant-raced-the-quarantine path handles; the sweep pins every
// alignment of the race instead of hoping a random campaign lands on
// the bad one.
//
// Recovery-era race: the deterministic grid sweep of the timing between
// one device's quarantine-and-reintegration cycle and a neighboring
// device's ownership migration. The recovery protocol fences, drains,
// and resets exactly one device; blast-radius containment says the
// neighbor sharing the host — and the CPUs it migrates lines with —
// must never notice. The sweep arms the hostile burst at every delay
// against the neighbor's migration, so the fence lands before, during,
// and after each phase of the neighbor's traffic, and every alignment
// must end with the hostile device readmitted under a fresh epoch AND
// the neighbor's values intact.
package explore

import (
	"fmt"
	"slices"

	"crossingguard/internal/accel"
	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/core"
	"crossingguard/internal/fuzz"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
)

// raceLinePool is the quarantine scenario's attacker pool: raceLine alone.
var raceLinePool = []mem.Addr{raceLine}

// quarantineThreshold is the guard's QuarantineAfter for the scenario:
// small, so a short burst of garbage trips the fence at a precisely
// chosen tick.
const quarantineThreshold = 5

// hostileSpec is spec with the guard settings the hostile scenarios run
// under: a short timeout, one recall retry, and a quarantine that a short
// burst trips.
func hostileSpec(spec config.Spec) config.Spec {
	spec.Timeout = 2000
	spec.RecallRetries = 1
	spec.QuarantineAfter = quarantineThreshold
	return spec
}

// burst schedules a to send, after delay ticks, stray AInvAcks for
// consecutive lines from line on, one more than the quarantine threshold.
// Nothing was ever invalidated, so each is a violation and together they
// trip the fence.
func burst(sys *config.System, a *fuzz.Attacker, line mem.Addr, delay sim.Time) {
	sys.Eng.Schedule(delay, func() {
		for i := 0; i <= quarantineThreshold; i++ {
			a.Send(coherence.AInvAck, line+mem.Addr(i*mem.BlockBytes), nil)
		}
	})
}

// settle runs what a hostile scenario's verdict issued after the era it
// names, then checks that the host is healthy: every host transaction
// closed and the host audit clean.
func settle(sys *config.System, era string) error {
	if !sys.Eng.RunUntil(40_000_000) {
		return fmt.Errorf("post-%s ops did not drain", era)
	}
	if n := sys.HostOutstanding(); n != 0 {
		return fmt.Errorf("%d host transactions outstanding after %s", n, era)
	}
	if err := sys.AuditHostOnly(); err != nil {
		return fmt.Errorf("post-%s audit: %v", era, err)
	}
	return nil
}

// QuarantineScenario returns the quarantine-vs-grant race. The machine
// is built with a scripted hostile accelerator (fuzz.Attacker): it
// legitimately requests the race line shared — putting an S-grant in
// flight across the crossing — and, after a chosen delay, fires a burst
// of stray AInvAcks that pushes the guard's violation count over the
// quarantine threshold. Depending on the delay, the fence lands
// before the grant is issued, while it is crossing, or after the
// attacker holds the line; every alignment must leave the host live,
// auditable, and serving correct data.
func QuarantineScenario() Scenario {
	var att *fuzz.Attacker
	return Scenario{
		Name:             "quarantine-vs-grant",
		ExpectViolations: true,
		Build: func(spec config.Spec) *config.System {
			spec = hostileSpec(spec)
			spec.CustomAccel = func(s *config.System, slot *config.CustomSlot) {
				att = config.SlotDevice[fuzz.Attacker](slot)
				att.Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, spec.Seed, raceLinePool)
			}
			return config.Build(spec)
		},
		Run: func(sys *config.System, choose Choose) func() error {
			a, at := att, choose()
			sys.CPUSeqs[0].Store(raceLine, 51, func(*seq.Op) {
				// The host holds the line dirty; the adversary requests it
				// shared, putting a grant in flight, and the burst follows.
				a.Send(coherence.AGetS, raceLine, nil)
				burst(sys, a, raceLine, at)
			})
			return func() error {
				if !slices.ContainsFunc(sys.Guards, func(g *core.Guard) bool { return g.Quarantined }) {
					return fmt.Errorf("guard never quarantined (violations logged: %d)", sys.Log.Count())
				}
				if sys.Log.Count() == 0 {
					return fmt.Errorf("no violations logged by a scenario built on them")
				}
				// The quarantine era: the host must still own its data.
				// A CPU writes the contested line and another reads it
				// back — if the fence lost the in-flight grant's bookkeeping
				// this recall hangs or returns stale data.
				got := byte(255)
				sys.CPUSeqs[1].Store(raceLine, 52, func(*seq.Op) {
					sys.CPUSeqs[0].Load(raceLine, func(op *seq.Op) { got = op.Result })
				})
				if err := settle(sys, "quarantine"); err != nil {
					return err
				}
				if got != 52 {
					return fmt.Errorf("post-quarantine read %d, want 52", got)
				}
				return nil
			}
		},
	}
}

// hostileLine is the base of the hostile device's working set, disjoint
// from raceLine so the quarantine cycle touches no line the neighbor
// traffic depends on — any neighbor damage is protocol blast radius,
// not address sharing.
const hostileLine = mem.Addr(0x7A00)

// hostilePool is the hostile device's attacker pool: hostileLine alone.
var hostilePool = []mem.Addr{hostileLine}

// neighbor is the recovery scenario's device 0: a real, well-behaved
// single-level accelerator. It is built by hand (CustomAccel replaces the
// hierarchy for every device) but wired like the standard single-level
// path, reset included, and a machine reset in place restarts it.
type neighbor struct {
	l1 *accel.L1Cache
	sq *seq.Sequencer
}

// wire builds the neighbor's cache and core at accelID behind guard xgID,
// or restarts the ones it built for the machine's last run and registers
// them again.
func (n *neighbor) wire(s *config.System, accelID, xgID coherence.NodeID) {
	if n.l1 == nil {
		n.l1 = accel.NewL1Cache(accelID, "nbrL1", s.Fab, xgID, accel.DefaultConfig())
		n.sq = seq.New(accelID+100, "nbr", s.Eng, s.Fab, accelID, &s.Ops)
	} else {
		n.l1.Restart()
		n.sq.Restart()
		s.Fab.Register(n.l1)
		s.Fab.Register(n.sq)
	}
	s.Fab.SetRoutePair(n.sq.ID(), accelID, network.Config{Latency: 1, Ordered: true})
}

// Reset is the device reset: abort the core's operations, then wipe the
// cache under the new epoch.
func (n *neighbor) Reset(epoch uint32) {
	n.sq.Abort()
	n.l1.Reset(epoch)
}

// Outstanding counts the cache's open work.
func (n *neighbor) Outstanding() int { return n.l1.Outstanding() }

// rejoiningAttacker is the hostile device: an attacker that rejoins the
// epoch protocol on reset. Without that, every post-reintegration
// injection is dropped as a stale straggler and the scenario could not
// tell "readmitted and served" from "readmitted and ignored".
type rejoiningAttacker struct{ fuzz.Attacker }

// Reset stamps the new epoch on what the attacker sends from here.
func (r *rejoiningAttacker) Reset(epoch uint32) { r.Epoch = epoch }

// recoverAfter is the scenario's readmission delay: long enough that
// the drain genuinely overlaps swept neighbor traffic, short enough
// that reintegration completes well inside the run.
const recoverAfter = sim.Time(600)

// RecoveryScenario returns the quarantine-while-neighbor-migrates race.
// The machine carries two devices behind separate guards: device 0 is a
// REAL single-level accelerator (cache + sequencer, built exactly like
// the standard hierarchy) and device 1 is a scripted hostile
// accelerator. The hostile device legitimately acquires a line — so the
// recovery drain has real trusted state to flush — and, after a chosen
// delay, fires a violation burst that trips quarantine while device 0
// is migrating a different line with the CPUs. Every alignment must
// leave (a) the neighbor migration correct, (b) the hostile guard
// recovered (not quarantined, epoch bumped), and (c) the readmitted
// device served again under the new epoch.
func RecoveryScenario() Scenario {
	var att *fuzz.Attacker
	var nbr *seq.Sequencer
	return Scenario{
		Name:             "recovery-vs-neighbor-migrate",
		ExpectViolations: true,
		Build: func(spec config.Spec) *config.System {
			spec = hostileSpec(spec)
			spec.Accels = 2
			spec.RecoverAfter = recoverAfter
			spec.CustomAccel = func(s *config.System, slot *config.CustomSlot) {
				if config.DeviceOf(slot.AccelID) == 0 {
					n := config.SlotDevice[neighbor](slot)
					n.wire(s, slot.AccelID, slot.XGID)
					nbr = n.sq
					return
				}
				r := config.SlotDevice[rejoiningAttacker](slot)
				r.Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, spec.Seed, hostilePool)
				att = &r.Attacker
			}
			return config.Build(spec)
		},
		Run: func(sys *config.System, choose Choose) func() error {
			a, nseq := att, nbr
			var vals [2]byte
			reads := 0
			// The hostile device legitimately acquires its line: the
			// grant, the trusted-state entry, and its eventual drain are
			// exactly what the recovery cycle must clean up.
			a.Send(coherence.AGetS, hostileLine, nil)
			// Neighbor migration: device 0 writes, a CPU overwrites, then
			// both read back — the line crosses device 0's guard and the
			// host in each direction while device 1 is being fenced,
			// drained, and reset.
			nseq.Store(raceLine, 81, func(*seq.Op) {
				sys.CPUSeqs[0].Store(raceLine, 99, func(*seq.Op) {
					nseq.Load(raceLine, func(op *seq.Op) { vals[0] = op.Result; reads++ })
					sys.CPUSeqs[1].Load(raceLine, func(op *seq.Op) { vals[1] = op.Result; reads++ })
				})
			})
			// After a chosen delay, the burst trips the hostile guard's
			// quarantine fence.
			burst(sys, a, hostileLine, choose())
			return func() error {
				var g *core.Guard
				for _, cand := range sys.Guards {
					if cand.AccelTag() == 1 {
						g = cand
					}
				}
				if g == nil {
					return fmt.Errorf("no guard carries accel tag 1")
				}
				if got := g.Recoveries(); got < 1 {
					return fmt.Errorf("hostile guard recovered %d times, want >=1 (quarantined=%v)",
						got, g.Quarantined)
				}
				if g.Quarantined {
					return fmt.Errorf("hostile guard still quarantined after recovery")
				}
				if g.Epoch() == 0 {
					return fmt.Errorf("hostile guard reintegrated without bumping the epoch")
				}
				// Containment: the neighbor's migration is untouched by
				// its peer's reset cycle.
				if reads != 2 {
					return fmt.Errorf("only %d/2 neighbor reads completed", reads)
				}
				if vals[0] != 99 || vals[1] != 99 {
					return fmt.Errorf("neighbor migration read %v, want [99 99]", vals)
				}
				// Readmission must restore service: a fresh request from
				// the recovered device (stamped with the new epoch) is
				// granted again.
				pre := a.Grants
				a.Send(coherence.AGetS, hostileLine, nil)
				if err := settle(sys, "recovery"); err != nil {
					return err
				}
				if a.Grants != pre+1 {
					return fmt.Errorf("readmitted device got %d grants, want %d (not served under new epoch)",
						a.Grants-pre, 1)
				}
				return nil
			}
		},
	}
}
