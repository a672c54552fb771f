package config

import (
	"testing"

	"crossingguard/internal/consistency"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/tester"
)

// shardAllocCeilings is the whole-shard allocation budget, in heap objects
// per completed load or store, for one stress shard, config.Build
// included, on the Transactional single-level guard and on the Full State
// guard over the two-level hierarchy (the shared L2's node sets and
// transactions, which live in its lines): about 10% above what the code
// allocates today (xg-txn/1L hammer 0.87, mesi 0.84; xg-full/2L hammer
// 0.83, mesi 0.81). The kernel and the fabric are gated at 0 allocs/op on
// their own (sim/perf_test.go, network/perf_test.go) and a warmed miss path
// at 0 messages and 0 blocks (TestMissPathAllocFree); this is the gate for
// everything else above them — building the machine and filling its pools
// (a 960-memop shard never amortizes that), coverage — where a
// per-transition or per-crossing allocation multiplies by every memop.
// internal/campaign's chaosAllocCeiling is its sibling for the adversarial
// path. Lower a ceiling when a change earns it; raise one only with the
// reason written here.
var shardAllocCeilings = []struct {
	name    string // subtest name: the xg-txn/1L rows keep the host's alone
	spec    Spec
	ceiling float64
}{
	{"hammer", Spec{Host: HostHammer, Org: OrgXGTxn1L}, 0.96},
	{"mesi", Spec{Host: HostMESI, Org: OrgXGTxn1L}, 0.93},
	{"hammer/xg-full/2L", Spec{Host: HostHammer, Org: OrgXGFull2L}, 0.91},
	{"mesi/xg-full/2L", Spec{Host: HostMESI, Org: OrgXGFull2L}, 0.89},
}

// stressShard builds and runs one benchmark-shaped stress shard (Small
// caches, 2 CPUs + 2 accelerator cores, seed 7, 20 stores per location)
// on spec's host and organization.
func stressShard(t *testing.T, spec Spec) tester.Result {
	res, _ := stressShardOn(t, spec, nil)
	return res
}

// stressShardOn is stressShard with a hook that sees the built machine
// before it runs; it also returns the machine.
func stressShardOn(t *testing.T, spec Spec, prepare func(*System)) (tester.Result, *System) {
	spec.CPUs, spec.AccelCores, spec.Seed, spec.Small = 2, 2, 7, true
	cfg := tester.DefaultConfig(7*37 + 5)
	cfg.StoresPerLoc = 20
	sys := Build(spec)
	if prepare != nil {
		prepare(sys)
	}
	res, err := tester.Run(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, sys
}

// TestStressShardAllocBudget builds and runs one stress shard per row of
// shardAllocCeilings and holds its allocations per memop under the ceiling.
func TestStressShardAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, row := range shardAllocCeilings {
		row := row
		t.Run(row.name, func(t *testing.T) {
			var memops uint64
			allocs := testing.AllocsPerRun(3, func() {
				res := stressShard(t, row.spec)
				memops = res.Stores + res.Loads
			})
			perMemop := allocs / float64(memops)
			t.Logf("%.0f objects / %d memops = %.2f per memop (ceiling %.2f)",
				allocs, memops, perMemop, row.ceiling)
			if perMemop > row.ceiling {
				t.Fatalf("%.2f heap objects per memop, over the %.2f ceiling", perMemop, row.ceiling)
			}
		})
	}
}

// TestStressShardRecordedIsInvisible pins that attaching the observation
// recorder does not perturb the simulation: the recorded shard ends at
// the same tick with the same memop count as the plain one. Recording
// overhead is priced by comparing the two, so they must be one workload.
func TestStressShardRecordedIsInvisible(t *testing.T) {
	rec := consistency.NewRecorder()
	plain := stressShard(t, Spec{Host: HostMESI, Org: OrgXGFull1L})
	recorded := stressShard(t, Spec{Host: HostMESI, Org: OrgXGFull1L, Consistency: rec})
	if len(rec.Merged()) == 0 {
		t.Fatal("recorded shard produced no observations")
	}
	if plain.EndTime != recorded.EndTime || plain.Stores+plain.Loads != recorded.Stores+recorded.Loads {
		t.Fatalf("recording perturbed the shard: plain (%d,%d), recorded (%d,%d)",
			plain.EndTime, plain.Stores+plain.Loads, recorded.EndTime, recorded.Stores+recorded.Loads)
	}
}
