// Multi-accelerator race scenarios: two devices, each behind its own
// guard, fighting over one block. The host fabric is the only path
// between them, so every interleaving here exercises the full
// guard-to-guard migration machinery (recall at the losing guard, grant
// at the winning one) at a swept timing choice.
package explore

import (
	"fmt"

	"crossingguard/internal/config"
	"crossingguard/internal/seq"
)

// deviceSeq returns the first sequencer belonging to accelerator device
// d, or nil when the machine has no such device.
func deviceSeq(sys *config.System, d int) *seq.Sequencer {
	for i, sq := range sys.AccelSeqs {
		if sys.AccelSeqDevice(i) == d {
			return sq
		}
	}
	return nil
}

// MultiAccelScenarios returns the two-device ownership-migration races.
// Sweep them with a Spec carrying Accels: 2.
func MultiAccelScenarios() []Scenario {
	return []Scenario{
		{
			// The core migration race: device A owns the block modified;
			// after a chosen delay device B writes the same block. A's guard
			// must recall the dirty data and B's guard must re-grant it,
			// all through the host. Afterwards both devices and a CPU
			// must agree on one final value.
			Name: "xaccel-migrate",
			Run: func(sys *config.System, choose Choose) func() error {
				devices := []*seq.Sequencer{deviceSeq(sys, 0), deviceSeq(sys, 1)}
				return writeThenAgree(sys, 51, devices, append(devices, sys.CPUSeqs[0]), choose())
			},
		},
		{
			// Migration to shared: device A writes, device B reads after a
			// chosen delay. B's read crosses two guards and must observe
			// A's store once it completed; A re-reading its own store must
			// never lose it to the downgrade.
			Name: "xaccel-read-share",
			Run: func(sys *config.System, choose Choose) func() error {
				seqA, seqB, at := deviceSeq(sys, 0), deviceSeq(sys, 1), choose()
				var sawB, sawA = byte(255), byte(255)
				done := false
				seqA.Store(raceLine, 61, func(*seq.Op) {
					sys.Eng.Schedule(at, func() {
						seqB.Load(raceLine, func(op *seq.Op) {
							sawB = op.Result
							seqA.Load(raceLine, func(op *seq.Op) {
								sawA = op.Result
								done = true
							})
						})
					})
				})
				return func() error {
					if !done {
						return fmt.Errorf("sequence never completed")
					}
					if sawB != 61 {
						return fmt.Errorf("device B read %d across the guards, want 61", sawB)
					}
					if sawA != 61 {
						return fmt.Errorf("device A lost its own store to the downgrade (read %d)", sawA)
					}
					return nil
				}
			},
		},
		{
			// Ping-pong under CPU pressure: the devices alternate stores
			// to one line while a CPU writes after a chosen delay; the line
			// migrates guard->host->guard repeatedly and the last read
			// must observe one of the written values with no divergence.
			Name: "xaccel-pingpong",
			Run: func(sys *config.System, choose Choose) func() error {
				seqA, seqB, at := deviceSeq(sys, 0), deviceSeq(sys, 1), choose()
				var final = byte(255)
				round := 0
				var ping func(*seq.Op)
				ping = func(*seq.Op) {
					round++
					switch {
					case round < 4:
						sq := seqA
						if round%2 == 1 {
							sq = seqB
						}
						sq.Store(raceLine, 70+byte(round), ping)
					default:
						sys.CPUSeqs[1].Load(raceLine, func(op *seq.Op) { final = op.Result })
					}
				}
				seqA.Store(raceLine, 70, ping)
				sys.Eng.Schedule(at, func() { sys.CPUSeqs[0].Store(raceLine, 99, nil) })
				return func() error {
					if final == 255 {
						return fmt.Errorf("final read never completed")
					}
					if final != 73 && final != 99 {
						return fmt.Errorf("final value %d, want 73 (last device store) or 99 (CPU store serialized last)", final)
					}
					return nil
				}
			},
		},
	}
}
