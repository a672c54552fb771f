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
package explore

import (
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/fuzz"
	"crossingguard/internal/mem"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
)

// raceLinePool is the quarantine scenario's attacker pool: raceLine alone.
var raceLinePool = []mem.Addr{raceLine}

// quarantineThreshold is the guard's QuarantineAfter for the scenario:
// small, so a short burst of garbage trips the fence at a precisely
// swept tick.
const quarantineThreshold = 5

// QuarantineScenario returns the quarantine-vs-grant race. The machine
// is built with a scripted hostile accelerator (fuzz.Attacker): it
// legitimately requests the race line shared — putting an S-grant in
// flight across the crossing — and, at the swept offset, fires a burst
// of stray AInvAcks that pushes the guard's violation count over the
// quarantine threshold. Depending on the offset, the fence lands
// before the grant is issued, while it is crossing, or after the
// attacker holds the line; every alignment must leave the host live,
// auditable, and serving correct data.
func QuarantineScenario() Scenario {
	var att *fuzz.Attacker
	return Scenario{
		Name:             "quarantine-vs-grant",
		ExpectViolations: true,
		Build: func(spec config.Spec) *config.System {
			spec.Timeout = 2000
			spec.RecallRetries = 1
			spec.QuarantineAfter = quarantineThreshold
			spec.CustomAccel = func(s *config.System, slot *config.CustomSlot) {
				att = config.SlotDevice[fuzz.Attacker](slot)
				att.Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, spec.Seed, raceLinePool)
			}
			return config.Build(spec)
		},
		Run: func(sys *config.System, off sim.Time) func() error {
			a := att
			sys.CPUSeqs[0].Store(raceLine, 51, func(*seq.Op) {
				// The host holds the line dirty; the adversary requests it
				// shared, putting a grant in flight.
				a.Send(coherence.AGetS, raceLine, nil)
				// At the swept offset, stray AInvAcks (nothing was ever
				// invalidated) trip the quarantine fence.
				sys.Eng.Schedule(off, func() {
					for i := 0; i <= quarantineThreshold; i++ {
						a.Send(coherence.AInvAck, raceLine+mem.Addr(i*mem.BlockBytes), nil)
					}
				})
			})
			return func() error {
				quarantined := false
				for _, g := range sys.Guards {
					if g.Quarantined {
						quarantined = true
					}
				}
				if !quarantined {
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
				if !sys.Eng.RunUntil(40_000_000) {
					return fmt.Errorf("post-quarantine ops did not drain")
				}
				if n := sys.HostOutstanding(); n != 0 {
					return fmt.Errorf("%d host transactions outstanding after quarantine", n)
				}
				if got != 52 {
					return fmt.Errorf("post-quarantine read %d, want 52", got)
				}
				if err := sys.AuditHostOnly(); err != nil {
					return fmt.Errorf("post-quarantine audit: %v", err)
				}
				return nil
			}
		},
	}
}
