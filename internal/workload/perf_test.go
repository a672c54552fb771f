package workload

import (
	"testing"

	"crossingguard/internal/config"
	"crossingguard/internal/raceflag"
)

// TestKernelShardAllocBudget builds and runs one benchmark-shaped kernel
// shard (full-size caches, 2 CPUs + 2 accelerator cores, streaming) behind
// a guard and on a guard-free machine, and holds its allocations, in heap
// objects per completed load or store with config.Build included, under a
// ceiling about 10% above what the code allocates today (0.250 and 0.048).
// A kernel is mostly cache hits, whose round trip is gated at zero objects
// (seq.TestSequencerRoundTripAllocFree), and a miss's messages and blocks
// come off the machine's free lists (config.TestMissPathAllocFree); what
// is left is the machine itself, its pools filling, and the guard's
// per-crossing records. Lower a ceiling when a change earns it; raise one
// only with the reason written here.
func TestKernelShardAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, m := range []struct {
		host    config.HostKind
		org     config.Org
		ceiling float64
	}{{config.HostMESI, config.OrgXGFull1L, 0.28}, {config.HostHammer, config.OrgHostSide, 0.055}} {
		cfg := DefaultConfig(Streaming)
		spec := config.Spec{Host: m.host, Org: m.org, CPUs: 2, AccelCores: 2, Seed: 7, Perms: Perms(cfg)}
		t.Run(spec.Name(), func(t *testing.T) {
			var memops uint64
			allocs := testing.AllocsPerRun(3, func() {
				res, err := Run(config.Build(spec), cfg)
				if err != nil {
					t.Fatal(err)
				}
				memops = res.AccelAccesses + res.CPUAccesses
			})
			perMemop := allocs / float64(memops)
			t.Logf("%.0f objects / %d memops = %.3f per memop (ceiling %.3f)", allocs, memops, perMemop, m.ceiling)
			if perMemop > m.ceiling {
				t.Fatalf("%.3f heap objects per memop, over the %.3f ceiling", perMemop, m.ceiling)
			}
		})
	}
}
