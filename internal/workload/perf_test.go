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
// ceiling about 15% above what the code allocates today (1.10 and 0.59).
// A kernel is mostly cache hits, whose round trip is gated at zero objects
// (seq.TestSequencerRoundTripAllocFree); what is left is the machine
// itself and the misses' protocol messages, transaction records and block
// copies. Lower a ceiling when a change earns it; raise one only with the
// reason written here.
func TestKernelShardAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, m := range []struct {
		host    config.HostKind
		org     config.Org
		ceiling float64
	}{{config.HostMESI, config.OrgXGFull1L, 1.25}, {config.HostHammer, config.OrgHostSide, 0.7}} {
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
			t.Logf("%.0f objects / %d memops = %.2f per memop (ceiling %.2f)", allocs, memops, perMemop, m.ceiling)
			if perMemop > m.ceiling {
				t.Fatalf("%.2f heap objects per memop, over the %.2f ceiling", perMemop, m.ceiling)
			}
		})
	}
}
