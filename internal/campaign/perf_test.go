package campaign

import (
	"testing"

	"crossingguard/internal/accel"
	"crossingguard/internal/config"
	"crossingguard/internal/faults"
	"crossingguard/internal/raceflag"
)

// chaosAllocCeiling is config's shardAllocCeiling for the adversarial path:
// heap objects per completed memop or adversary message, for one
// benchmark-shaped chaos shard (stale-writer adversary, the chaotic fault
// preset, 2 CPUs, 2000 messages, xg-txn/1L) through RunShard, machine build,
// fault injector, quarantine and result maps included. About 10% above what
// the code allocates today (hammer 1.14, mesi 1.02; 3.74 and 2.95 while the
// adversary's step, the guard's records and the injector's slice were
// allocated per event); the adversary's forged messages and stale blocks are
// most of what is left, by the lifetime rule. Lower it when a change earns
// it; raise it only with the reason written here.
var chaosAllocCeiling = map[config.HostKind]float64{config.HostHammer: 1.26, config.HostMESI: 1.13}

func TestChaosShardAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var chaotic faults.Plan
	for _, p := range faults.Presets {
		if p.Name == "chaotic" {
			chaotic = p.Plan
		}
	}
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			spec := ShardSpec{Kind: KindChaos, Host: host, Org: config.OrgXGTxn1L, Seed: 7, CPUs: 2,
				Messages: 2000, Model: accel.AdvStaleWriter.String(), Faults: chaotic}
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
