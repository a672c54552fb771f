package config

import (
	"runtime"
	"testing"

	"crossingguard/internal/consistency"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/tester"
)

// shardAllocCeilings is the whole-shard allocation budget, in heap objects
// and heap bytes per completed load or store, for one stress shard,
// config.Build included, on the Transactional single-level guard and on
// the Full State guard over the two-level hierarchy (the shared L2's node
// sets and transactions, which live in its lines): about 10% above what
// the code allocates today (xg-txn/1L hammer 0.635 objects and 81.7 B,
// mesi 0.631 and 80.2 B; xg-full/2L hammer 0.619 and 79.2 B, mesi 0.613
// and 78.9 B). While every pooled record was two objects (a bound callback
// beside it, three for a lane's), every controller kept its waiting
// messages in a map of slices and every core its own Op list, xg-txn/1L
// hammer read 0.82 objects and 94 B. The byte ceiling sees what the object
// count cannot: a structure that grows by doubling is a few objects but
// many bytes: with per-sequencer latency histograms and a Go map for the
// fabric's channels, xg-txn/1L hammer read 0.86 objects but 129 B per
// memop. The kernel and the fabric are gated at 0
// allocs/op on their own (sim/perf_test.go, network/perf_test.go) and a
// warmed miss path at 0 messages and 0 blocks (TestMissPathAllocFree);
// this is the gate for everything else above them — building the machine
// and filling its pools (a 960-memop shard never amortizes that),
// coverage — where a per-transition or per-crossing allocation multiplies
// by every memop. internal/campaign's chaosAllocCeiling is its sibling for
// the adversarial path. Lower a ceiling when a change earns it; raise one
// only with the reason written here.
var shardAllocCeilings = []struct {
	name    string // subtest name: the xg-txn/1L rows keep the host's alone
	spec    Spec
	ceiling float64 // heap objects per memop
	bytes   float64 // heap bytes per memop
}{
	{"hammer", Spec{Host: HostHammer, Org: OrgXGTxn1L}, 0.70, 90},
	{"mesi", Spec{Host: HostMESI, Org: OrgXGTxn1L}, 0.69, 88},
	{"hammer/xg-full/2L", Spec{Host: HostHammer, Org: OrgXGFull2L}, 0.68, 87},
	{"mesi/xg-full/2L", Spec{Host: HostMESI, Org: OrgXGFull2L}, 0.67, 87},
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
			allocs, bytes := allocsPerRun(3, func() {
				res := stressShard(t, row.spec)
				memops = res.Stores + res.Loads
			})
			perMemop, bytesPerMemop := allocs/float64(memops), bytes/float64(memops)
			t.Logf("%.0f objects, %.0f B / %d memops = %.3f objects, %.1f B per memop (ceilings %.2f, %.0f B)",
				allocs, bytes, memops, perMemop, bytesPerMemop, row.ceiling, row.bytes)
			if perMemop > row.ceiling {
				t.Fatalf("%.3f heap objects per memop, over the %.2f ceiling", perMemop, row.ceiling)
			}
			if bytesPerMemop > row.bytes {
				t.Fatalf("%.1f heap bytes per memop, over the %.0f B ceiling", bytesPerMemop, row.bytes)
			}
		})
	}
}

// allocsPerRun is testing.AllocsPerRun that also counts bytes: the mean
// heap objects and heap bytes one call of f allocates, after one warm-up
// call, on one P so nothing else allocates in between.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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
