package config

import (
	"testing"

	"crossingguard/internal/raceflag"
	"crossingguard/internal/tester"
)

// shardAllocCeiling is the whole-shard allocation budget, in heap objects
// per completed load or store, for one stress shard on the Transactional
// single-level guard, config.Build included: about 10% above what the
// code allocates today (hammer 30.3, mesi 23.0). The
// kernel and the fabric are gated at 0 allocs/op on their own
// (sim/perf_test.go, network/perf_test.go); this is the gate for
// everything above them — the guard, the host protocols, coverage, block
// copies — where a per-transition allocation multiplies by every memop.
// Lower it when a change earns it; raise it only with the reason written
// here.
var shardAllocCeiling = map[HostKind]float64{HostHammer: 33.3, HostMESI: 25.3}

// TestStressShardAllocBudget builds and runs one benchmark-shaped stress
// shard per host (Small caches, 2 CPUs + 2 accelerator cores, 20 stores
// per location, xg-txn/1L) and holds its allocations per memop under the
// ceiling.
func TestStressShardAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, host := range []HostKind{HostHammer, HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			var memops uint64
			shard := func() {
				s := Build(Spec{Host: host, Org: OrgXGTxn1L, CPUs: 2, AccelCores: 2, Seed: 7, Small: true})
				cfg := tester.DefaultConfig(7*37 + 5)
				cfg.StoresPerLoc = 20
				res, err := tester.Run(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				memops = res.Stores + res.Loads
			}
			allocs := testing.AllocsPerRun(3, shard)
			perMemop := allocs / float64(memops)
			t.Logf("%.0f objects / %d memops = %.2f per memop (ceiling %.1f)",
				allocs, memops, perMemop, shardAllocCeiling[host])
			if perMemop > shardAllocCeiling[host] {
				t.Fatalf("%.2f heap objects per memop, over the %.1f ceiling", perMemop, shardAllocCeiling[host])
			}
		})
	}
}
