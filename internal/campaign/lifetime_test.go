package campaign

import (
	"fmt"
	"testing"

	"crossingguard/internal/accel"
	"crossingguard/internal/config"
	"crossingguard/internal/faults"
	"crossingguard/internal/tester"
)

// TestChaosLifetimeMatrix is the message-lifetime check for forged
// traffic. An adversary's messages come from the machine's pool like
// everyone else's, so the rule in the coherence.Msg comment has to hold on
// every edge a chaos shard sends them over: delivered twice or beside a
// corrupted copy of themselves (the chaotic fault preset, which disowns
// them), dropped by a guard that has fenced or reset its device (recovery
// is on), kept on a wait list, answered late. Every adversary model runs
// on 1 and on 16 devices, over a clean and a chaotic fabric, with the
// lifetime check on — released messages and blocks poisoned and never
// reused — and must end exactly like the unchecked run (a use after
// release reads poison and changes the result; a read of the next tenant
// changes the plain one), drain, and pass System.Audit, whose pool check
// requires every message back and every block accounted for wherever no
// fault, quarantine or reset lost some by design: the clean-fabric rows of
// the models that are never fenced.
func TestChaosLifetimeMatrix(t *testing.T) {
	models := append(append([]accel.AdvModel{}, accel.AllAdvModels...), accel.AdvFlapper, accel.AdvIdle)
	fabrics := []faults.Preset{{Name: "clean"}, {Name: "chaotic", Plan: chaotic(t)}}
	var injected uint64
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, accels := range []int{1, 16} {
			for _, model := range models {
				for _, fabric := range fabrics {
					spec := ShardSpec{Kind: KindChaos, Host: host, Org: config.OrgXGFull1L, Seed: 3, CPUs: 2,
						Accels: accels, Messages: 600, Model: model.String(), Faults: fabric.Plan,
						Confined: true, RecoverAfter: 5000}
					t.Run(fmt.Sprintf("%v/%dx%v/%s", host, accels, model, fabric.Name), func(t *testing.T) {
						run := func(check bool) (tester.Result, uint64, *config.System) {
							m, err := newMachine(spec)
							if err != nil {
								t.Fatal(err)
							}
							if check {
								m.sys.Fab.CheckLifetimes()
							}
							res, err := tester.Run(m.drive, m.cfg)
							if err != nil {
								t.Fatal(err)
							}
							var sent uint64
							for _, n := range m.sent {
								sent += *n
							}
							return res, sent, m.sys
						}
						plain, plainSent, _ := run(false)
						checked, sent, sys := run(true)
						if plain != checked || plainSent != sent {
							t.Fatalf("lifetime check changed the run: plain %+v (%d sent), checked %+v (%d sent)",
								plain, plainSent, checked, sent)
						}
						if model != accel.AdvIdle && sent == 0 {
							t.Fatal("the adversary sent nothing")
						}
						if fabric.Plan.Active() {
							injected += sys.Faults.Injected
						}
						// The tester stops with the CPUs; let the adversaries
						// spend their budget and the guards close what they can.
						if !sys.Eng.RunUntil(sys.Eng.Now() + 50_000_000) {
							t.Fatal("machine did not drain")
						}
						if err := sys.Audit(); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
	if injected == 0 {
		t.Fatal("the chaotic fabric injected no fault in any row")
	}
}
