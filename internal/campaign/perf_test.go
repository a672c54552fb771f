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
// the code allocates today (hammer 0.44, mesi 0.44; 0.54 and 0.53 while
// every pooled record was two objects, controllers queued waiting messages
// in maps of slices and every core kept its own Op list; 1.14 and 1.02
// while the adversary built every message it sent and the guard two counter names per
// violation; 3.74 and 2.95 while the adversary's step, the guard's records
// and the injector's slice were allocated per event). What is left is the
// machine — build, pools filling, channels opening — and the error log.
// Lower it when a change earns it; raise it only with the reason written
// here.
var chaosAllocCeiling = map[config.HostKind]float64{config.HostHammer: 0.49, config.HostMESI: 0.49}

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

func TestChaosShardAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			spec := ShardSpec{Kind: KindChaos, Host: host, Org: config.OrgXGTxn1L, Seed: 7, CPUs: 2,
				Messages: 2000, Model: accel.AdvStaleWriter.String(), Faults: chaotic(t)}
			var ops uint64
			allocs := testing.AllocsPerRun(3, func() {
				res := RunShard(spec, false)
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if res.Sent == 0 || res.Injected == 0 {
					t.Fatalf("adversary sent %d messages, injector perturbed %d", res.Sent, res.Injected)
				}
				ops = res.Res.Stores + res.Res.Loads + res.Sent
			})
			per := allocs / float64(ops)
			t.Logf("%.0f objects / %d memops and adversary messages = %.2f each (ceiling %.2f)",
				allocs, ops, per, chaosAllocCeiling[host])
			if per > chaosAllocCeiling[host] {
				t.Fatalf("%.2f heap objects per memop or adversary message, over the %.2f ceiling", per, chaosAllocCeiling[host])
			}
		})
	}
}

// wideShardByteCeiling bounds the bytes one 16-device chaos shard allocates
// on the Hammer host, where every guard is one more cache the directory
// broadcasts to and every pair of them a channel: what a channel, a
// controller and a pool entry weigh shows here, and hardly in the
// per-memop numbers of a one-device shard. About 10% above today's reading
// (327 kB in 1 813 objects; 342 kB in 2 089 while pooled records were two
// objects each, waiting messages sat in maps of slices and every core kept
// its own Op list; 354 kB while the sequencers kept latency
// histograms and the fabric a channel map; 455 kB in 3 186 while a channel
// held two 62-entry per-type arrays and the adversaries built their own
// messages).
const wideShardByteCeiling = 360_000

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
	run() // the first run also pays for lazily built package state
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
