// Recovery-era race: the deterministic grid sweep of the timing between
// one device's quarantine-and-reintegration cycle and a neighboring
// device's ownership migration. The recovery protocol fences, drains,
// and resets exactly one device; blast-radius containment says the
// neighbor sharing the host — and the CPUs it migrates lines with —
// must never notice. The sweep arms the hostile burst at every offset
// against the neighbor's migration, so the fence lands before, during,
// and after each phase of the neighbor's traffic, and every alignment
// must end with the hostile device readmitted under a fresh epoch AND
// the neighbor's values intact.
package explore

import (
	"fmt"

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
// recovery drain has real trusted state to flush — and, at the swept
// offset, fires a violation burst that trips quarantine while device 0
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
			spec.Accels = 2
			spec.Timeout = 2000
			spec.RecallRetries = 1
			spec.QuarantineAfter = quarantineThreshold
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
		Run: func(sys *config.System, off sim.Time) func() error {
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
			// At the swept offset, stray AInvAcks (nothing was ever
			// invalidated) trip the hostile guard's quarantine fence.
			sys.Eng.Schedule(off, func() {
				for i := 0; i <= quarantineThreshold; i++ {
					a.Send(coherence.AInvAck, hostileLine+mem.Addr(i*mem.BlockBytes), nil)
				}
			})
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
				if !sys.Eng.RunUntil(40_000_000) {
					return fmt.Errorf("post-recovery request did not drain")
				}
				if a.Grants != pre+1 {
					return fmt.Errorf("readmitted device got %d grants, want %d (not served under new epoch)",
						a.Grants-pre, 1)
				}
				if n := sys.HostOutstanding(); n != 0 {
					return fmt.Errorf("%d host transactions outstanding after recovery", n)
				}
				if err := sys.AuditHostOnly(); err != nil {
					return fmt.Errorf("post-recovery audit: %v", err)
				}
				return nil
			}
		},
	}
}
