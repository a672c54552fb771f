package workload

import (
	"runtime"
	"testing"

	"crossingguard/internal/config"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/tester"
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

// TestAuditAllocBudget holds the quiesce audit's allocations, in heap
// objects and bytes per call of config.System.Audit and AuditHostOnly,
// under ceilings about 10% above what it allocates today: on the 12 Small
// stress machines (2 CPUs + 2 accelerator cores, seed 7, 960 memops; at
// most 36 objects and 1 618 B for Audit, 17 and 762 B for AuditHostOnly)
// and on one full-size kernel machine per host (streaming; Audit 84
// objects and 107 KB on mesi/xg-full/1L, 30 and 29 KB on
// hammer/xg-txn/2L, AuditHostOnly 15 and 7 KB on both). The audit runs
// once per machine inside the measured work of every stress and kernel
// shard. While it kept a map entry and a slice per line, it made 856
// objects and 216 KB on the MESI kernel machine and 1 187 and 193 KB on
// the hammer one; a claim slice regrown as it filled, and the recorded
// owners copied into a second one, cost about half again the bytes. Most
// of what is left on a Full State machine is auditGuardTables' maps.
// Lower a ceiling when a change earns it; raise one only with the reason
// written here.
func TestAuditAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	type ceiling struct{ objects, bytes float64 }
	check := func(t *testing.T, sys *config.System, audit, hostOnly ceiling) {
		for _, c := range []struct {
			name string
			fn   func() error
			max  ceiling
		}{{"Audit", sys.Audit, audit}, {"AuditHostOnly", sys.AuditHostOnly, hostOnly}} {
			if err := c.fn(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			objects, bytes := auditAllocs(func() { _ = c.fn() })
			t.Logf("%s: %.0f objects, %.0f B (ceilings %.0f, %.0f B)", c.name, objects, bytes, c.max.objects, c.max.bytes)
			if objects > c.max.objects || bytes > c.max.bytes {
				t.Errorf("%s: %.0f objects and %.0f B, over the ceilings of %.0f and %.0f B",
					c.name, objects, bytes, c.max.objects, c.max.bytes)
			}
		}
	}
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range config.AllOrgs {
			spec := config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 2, Seed: 7, Small: true}
			t.Run("stress/"+spec.Name(), func(t *testing.T) {
				cfg := tester.DefaultConfig(7*37 + 5)
				cfg.StoresPerLoc = 20
				sys := config.Build(spec)
				if _, err := tester.Run(sys, cfg); err != nil {
					t.Fatal(err)
				}
				check(t, sys, ceiling{40, 1780}, ceiling{19, 840})
			})
		}
	}
	for _, m := range []struct {
		host            config.HostKind
		org             config.Org
		audit, hostOnly ceiling
	}{
		{config.HostMESI, config.OrgXGFull1L, ceiling{92, 118_000}, ceiling{17, 8_100}},
		{config.HostHammer, config.OrgXGTxn2L, ceiling{33, 32_500}, ceiling{17, 8_000}},
	} {
		cfg := DefaultConfig(Streaming)
		spec := config.Spec{Host: m.host, Org: m.org, CPUs: 2, AccelCores: 2, Seed: 7, Perms: Perms(cfg)}
		t.Run("kernel/"+spec.Name(), func(t *testing.T) {
			sys := config.Build(spec)
			if _, err := Run(sys, cfg); err != nil {
				t.Fatal(err)
			}
			check(t, sys, m.audit, m.hostOnly)
		})
	}
}

// auditAllocs is the mean heap objects and bytes one call of f allocates,
// over five calls after a warm-up one, on one P so nothing else allocates
// in between.
func auditAllocs(f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 5; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / 5, float64(after.TotalAlloc-before.TotalAlloc) / 5
}
