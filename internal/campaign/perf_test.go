package campaign

import (
	"runtime"
	"testing"

	"crossingguard/internal/accel"
	"crossingguard/internal/config"
	"crossingguard/internal/faults"
	"crossingguard/internal/raceflag"
)

// chaosAllocCeiling is config's shardAllocCeilings for the adversarial
// path: heap objects per completed memop or adversary message, for one
// benchmark-shaped chaos shard (stale-writer adversary, the chaotic fault
// preset, 2 CPUs, 2000 messages, xg-txn/1L) through RunShard, machine build,
// fault injector, quarantine and result maps included. About 10% above what
// the code allocates today (hammer 0.025, mesi 0.021; 0.034 and 0.032 while
// the tester made a closure per location; 0.160 and 0.161 while
// the result cloned its registry one instrument at a time, the tester made
// each location three closures, every run built its adversary afresh and
// a lost message was made again; 0.42 and 0.43 while every shard built
// its machine afresh; 0.44
// and 0.45 while every machine built its random streams and error log
// afresh and the guard rendered every violation's text; 0.54 and 0.53 while
// every pooled record was two objects, controllers queued waiting messages
// in maps of slices and every core kept its own Op list; 1.14 and 1.02
// while the adversary built every message it sent and the guard two counter
// names per violation; 3.74 and 2.95 while the adversary's step, the
// guard's records and the injector's slice were allocated per event).
// AllocsPerRun's warm-up run parks the machine the measured runs reset, its
// adversary included; what is left is the tester's run, the violations'
// text and the result's copies. Lower it when a change earns
// it; raise it only with the reason written here.
var chaosAllocCeiling = map[config.HostKind]float64{config.HostHammer: 0.028, config.HostMESI: 0.023}

// fuzzAllocCeiling is chaosAllocCeiling for a benchmark-shaped fuzz shard
// (an attacker forging 2000 messages, host types included, at xg-full/1L):
// about 10% above today's readings (hammer 0.0081, mesi 0.0070; 0.012 and
// 0.012 while the tester made a closure per location; 0.047 and 0.044
// while the result cloned its registry one instrument at a time, the
// tester made each location three closures and every run built its
// attacker afresh).
var fuzzAllocCeiling = map[config.HostKind]float64{config.HostHammer: 0.0090, config.HostMESI: 0.0078}

// recoveryAllocCeiling is chaosAllocCeiling for a benchmark-shaped
// recovery shard (a flapping adversary the guard fences, drains, resets and
// readmits, confined, recorded, at xg-txn/2L): about 10% above today's
// readings (hammer 0.076, mesi 0.076; 0.091 and 0.093 while the tester
// made a closure per location and every confined shard a new permission
// table; 0.181 and 0.182 under the same conditions as fuzzAllocCeiling's).
var recoveryAllocCeiling = map[config.HostKind]float64{config.HostHammer: 0.084, config.HostMESI: 0.084}

// chaotic is the fault preset with every fault kind in it.
func chaotic(t *testing.T) faults.Plan {
	for _, p := range faults.Presets {
		if p.Name == "chaotic" {
			return p.Plan
		}
	}
	t.Fatal("no chaotic fault preset")
	return faults.Plan{}
}

// checkShardAllocs runs the shard spec on each host, on a machine the
// warm-up run parked, and fails when it allocates more heap objects per
// completed memop or attacker message than ceiling allows the host.
func checkShardAllocs(t *testing.T, spec ShardSpec, ceiling map[config.HostKind]float64) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		spec := spec
		spec.Host = host
		t.Run(host.String(), func(t *testing.T) {
			var ops uint64
			allocs := testing.AllocsPerRun(3, func() {
				res := RunShard(spec, false)
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if res.Sent == 0 || spec.Faults.Active() && res.Injected == 0 {
					t.Fatalf("attacker sent %d messages, injector perturbed %d", res.Sent, res.Injected)
				}
				ops = res.Res.Stores + res.Res.Loads + res.Sent
			})
			per := allocs / float64(ops)
			t.Logf("%.0f objects / %d memops and attacker messages = %.3f each (ceiling %.3f)",
				allocs, ops, per, ceiling[host])
			if per > ceiling[host] {
				t.Fatalf("%.3f heap objects per memop or attacker message, over the %.3f ceiling", per, ceiling[host])
			}
		})
	}
}

func TestChaosShardAllocBudget(t *testing.T) {
	checkShardAllocs(t, ShardSpec{Kind: KindChaos, Org: config.OrgXGTxn1L, Seed: 7, CPUs: 2,
		Messages: 2000, Model: accel.AdvStaleWriter.String(), Faults: chaotic(t)}, chaosAllocCeiling)
}

func TestFuzzShardAllocBudget(t *testing.T) {
	checkShardAllocs(t, ShardSpec{Kind: KindFuzz, Org: config.OrgXGFull1L, Seed: 7, CPUs: 2,
		Messages: 2000}, fuzzAllocCeiling)
}

func TestRecoveryShardAllocBudget(t *testing.T) {
	checkShardAllocs(t, ShardSpec{Kind: KindChaos, Org: config.OrgXGTxn2L, Seed: 7, CPUs: 2,
		Messages: 2000, Model: accel.AdvFlapper.String(), Confined: true, Consistency: true,
		RecoverAfter: 5000}, recoveryAllocCeiling)
}

// wideShardByteCeiling bounds the bytes one 16-device chaos shard allocates
// on the Hammer host, where every guard is one more cache the directory
// broadcasts to and every pair of them a channel: what a channel, a
// controller and a pool entry weigh shows here, and hardly in the
// per-memop numbers of a one-device shard. About 10% above today's reading
// (146 kB in 543 objects, on the machine the first run parked; 186 kB in
// 1 528 while every shard built its machine afresh; 327 kB in 1 813 while every machine built its
// random streams, 5 kB each and one per adversary, and its error log
// afresh; 342 kB in 2 089 while pooled records were two objects each,
// waiting messages sat in maps of slices and every core kept its own Op
// list; 354 kB while the sequencers kept latency histograms and the fabric
// a channel map; 455 kB in 3 186 while a channel held two 62-entry
// per-type arrays and the adversaries built their own messages). The first
// run parks its machine for the measured one, as shards on a worker do.
const wideShardByteCeiling = 161_000

func TestWideChaosShardByteBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	spec := ShardSpec{Kind: KindChaos, Host: config.HostHammer, Org: config.OrgXGTxn1L, Seed: 7, CPUs: 2,
		Accels: 16, Messages: 2000, Model: accel.AdvStaleWriter.String(), Faults: chaotic(t), Confined: true}
	run := func() {
		if res := RunShard(spec, false); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	run() // builds the machine and pays for lazily built package state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes in %d objects (ceiling %d bytes)", bytes, after.Mallocs-before.Mallocs, wideShardByteCeiling)
	if bytes > wideShardByteCeiling {
		t.Fatalf("a 16-device chaos shard allocated %d bytes, over the %d ceiling", bytes, wideShardByteCeiling)
	}
}
