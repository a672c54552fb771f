package workload

import (
	"fmt"
	"testing"

	"crossingguard/internal/config"
	"crossingguard/internal/mem"
	"crossingguard/internal/sim"
)

func smallWL(kind Kind) Config {
	c := DefaultConfig(kind)
	c.AccessesPerCore = 300
	c.Footprint = 1 << 12
	return c
}

func TestKernelsProduceBoundedAddresses(t *testing.T) {
	for _, kind := range AllKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := smallWL(kind)
			k := &kernel{cfg: cfg, core: 1}
			lo := accelBase
			hi := accelBase + mem.Addr(2*cfg.Footprint) + 4096
			stores := 0
			last := byte(0)
			for i := 0; i < cfg.AccessesPerCore; i++ {
				addr, store, _ := k.next(last)
				last = byte(addr)
				inShared := addr >= sharedBase && addr < sharedBase+mem.Addr(cfg.SharedBytes)
				if !inShared && (addr < lo || addr >= hi) {
					t.Fatalf("access %d out of region: %v", i, addr)
				}
				if store {
					stores++
				}
			}
			if stores == 0 {
				t.Fatal("kernel never stores")
			}
			if stores == cfg.AccessesPerCore {
				t.Fatal("kernel never loads")
			}
		})
	}
}

func TestGraphKernelIsDataDependent(t *testing.T) {
	cfg := smallWL(Graph)
	k1 := &kernel{cfg: cfg, core: 0}
	k2 := &kernel{cfg: cfg, core: 0}
	same := true
	for i := 0; i < 100; i++ {
		a1, _, _ := k1.next(byte(i)) // different observed values...
		a2, _, _ := k2.next(0)
		if a1 != a2 {
			same = false
		}
	}
	if same {
		t.Fatal("graph kernel ignores loaded values (not data-dependent)")
	}
}

// TestRunAllConfigsAllKinds is the integration sweep feeding E5/E6: every
// workload completes on every organization without protocol errors.
func TestRunAllConfigsAllKinds(t *testing.T) {
	kinds := AllKinds
	if testing.Short() {
		kinds = []Kind{Streaming, Graph}
	}
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range config.AllOrgs {
			for _, kind := range kinds {
				host, org, kind := host, org, kind
				t.Run(fmt.Sprintf("%v/%v/%v", host, org, kind), func(t *testing.T) {
					sys := config.Build(config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 2, Seed: 5})
					res, err := Run(sys, smallWL(kind))
					if err != nil {
						t.Fatal(err)
					}
					if res.Errors != 0 {
						t.Fatalf("protocol errors during workload: %v", sys.Log.Errors[0])
					}
					if res.AccelAccesses < uint64(2*300) {
						t.Fatalf("accel completed only %d accesses", res.AccelAccesses)
					}
					if res.Cycles == 0 || res.AccelAvgLat <= 0 {
						t.Fatalf("missing measurements: %+v", res)
					}
					if err := sys.Audit(); err != nil {
						t.Fatalf("audit after workload: %v", err)
					}
				})
			}
		}
	}
}

// TestPerformanceShape checks the paper's headline result (E5): the
// Crossing Guard organizations perform close to the unsafe accel-side
// cache, and clearly better than the safe host-side cache.
func TestPerformanceShape(t *testing.T) {
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			cycles := map[config.Org]float64{}
			for _, org := range config.AllOrgs {
				cfg := DefaultConfig(Blocked) // high reuse: caches matter
				cfg.AccessesPerCore = 1500
				// One accelerator device, as in the paper's GPU setup; the
				// multi-core organizations still run (with one core).
				sys := config.Build(config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 1,
					Seed: 9, Perms: Perms(cfg)})
				res, err := Run(sys, cfg)
				if err != nil {
					t.Fatalf("%v: %v", org, err)
				}
				cycles[org] = float64(res.Cycles)
			}
			for _, xg := range []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L, config.OrgXGFull2L, config.OrgXGTxn2L} {
				if cycles[xg] > 2.0*cycles[config.OrgAccelSide] {
					t.Errorf("%v runtime %.0f vs accel-side %.0f: not comparable",
						xg, cycles[xg], cycles[config.OrgAccelSide])
				}
				if cycles[xg] > 0.8*cycles[config.OrgHostSide] {
					t.Errorf("%v runtime %.0f vs host-side %.0f: no clear win",
						xg, cycles[xg], cycles[config.OrgHostSide])
				}
			}
			t.Logf("%v cycles: accel-side=%.0f host-side=%.0f xg-full/1L=%.0f xg-txn/1L=%.0f xg-full/2L=%.0f xg-txn/2L=%.0f",
				host, cycles[config.OrgAccelSide], cycles[config.OrgHostSide],
				cycles[config.OrgXGFull1L], cycles[config.OrgXGTxn1L],
				cycles[config.OrgXGFull2L], cycles[config.OrgXGTxn2L])
		})
	}
}

// TestPutSFractionSmall reproduces the §2.1 observation: PutS is a small
// share (roughly 1-4%) of accelerator-to-guard traffic.
func TestPutSFractionSmall(t *testing.T) {
	sys := config.Build(config.Spec{Host: config.HostHammer, Org: config.OrgXGFull1L,
		CPUs: 2, AccelCores: 2, Seed: 11})
	cfg := DefaultConfig(Streaming)
	cfg.AccessesPerCore = 1500
	res, err := Run(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PutSFrac <= 0 || res.PutSFrac > 0.10 {
		t.Fatalf("PutS fraction = %.4f, want small but nonzero", res.PutSFrac)
	}
	if sys.Guards[0].PutSSuppressed == 0 {
		t.Fatal("hammer guard should suppress PutS toward the host")
	}
	t.Logf("PutS fraction of accel->guard traffic: %.2f%%", 100*res.PutSFrac)
}

// TestCrossingBytesEveryDevice: boundary traffic counts every guard's
// accelerator channel, on every device and on the weak hierarchy, and
// nothing else in a guarded machine.
func TestCrossingBytesEveryDevice(t *testing.T) {
	for _, spec := range []config.Spec{
		{Host: config.HostMESI, Org: config.OrgXGTxn2L, Accels: 2},
		{Host: config.HostHammer, Org: config.OrgXGFull1L, Accels: 2},
		{Host: config.HostMESI, Org: config.OrgXGWeak},
	} {
		t.Run(spec.Name(), func(t *testing.T) {
			spec.CPUs, spec.AccelCores, spec.Seed = 2, 2, 5
			sys := config.Build(spec)
			res, err := Run(sys, smallWL(Streaming))
			if err != nil {
				t.Fatal(err)
			}
			var want uint64
			for _, g := range sys.Guards {
				want += sys.Fab.StatsFor(g.AccelID(), g.ID()).Bytes + sys.Fab.StatsFor(g.ID(), g.AccelID()).Bytes
			}
			if want == 0 || res.CrossingBytes != want {
				t.Fatalf("CrossingBytes = %d, want %d summed over %d guards", res.CrossingBytes, want, len(sys.Guards))
			}
		})
	}
}

// TestMultiAccelKernels runs the cross-accelerator kernels on two-device
// machines: every device completes, no protocol errors, and the audit
// holds after lines migrated between guards all run.
func TestMultiAccelKernels(t *testing.T) {
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range []config.Org{config.OrgXGFull1L, config.OrgXGTxn2L} {
			for _, kind := range MultiKinds {
				host, org, kind := host, org, kind
				t.Run(fmt.Sprintf("%v/%v/%v", host, org, kind), func(t *testing.T) {
					sys := config.Build(config.Spec{Host: host, Org: org, CPUs: 2,
						AccelCores: 1, Accels: 2, Seed: 5})
					res, err := Run(sys, smallWL(kind))
					if err != nil {
						t.Fatal(err)
					}
					if res.Errors != 0 {
						t.Fatalf("protocol errors during workload: %v", sys.Log.Errors[0])
					}
					if err := sys.Audit(); err != nil {
						t.Fatalf("audit after workload: %v", err)
					}
				})
			}
		}
	}
}

// TestFalseShareMigratesOwnership: the false-sharing kernel must force
// real cross-device ownership migrations — both guards recall lines —
// while the devices touch disjoint bytes.
func TestFalseShareMigratesOwnership(t *testing.T) {
	sys := config.Build(config.Spec{Host: config.HostHammer, Org: config.OrgXGFull1L,
		CPUs: 2, AccelCores: 1, Accels: 2, Seed: 7})
	cfg := smallWL(FalseShare)
	if _, err := Run(sys, cfg); err != nil {
		t.Fatal(err)
	}
	for d, g := range sys.Guards {
		if g.SnoopsForwarded == 0 {
			t.Errorf("guard %d never recalled a line: the hot lines never migrated", d)
		}
	}
}

// TestAccelLatIsEveryAccelOp: the completion callbacks add each
// accelerator access's latency to AccelLat, so it holds exactly the
// accesses the accelerator sequencers completed — their count, the mean
// of their latency totals and the largest of their maxima — on one device
// and on two.
func TestAccelLatIsEveryAccelOp(t *testing.T) {
	for _, spec := range []config.Spec{
		{Host: config.HostMESI, Org: config.OrgXGFull1L},
		{Host: config.HostHammer, Org: config.OrgHostSide},
		{Host: config.HostHammer, Org: config.OrgXGTxn2L, Accels: 2},
	} {
		spec.CPUs, spec.AccelCores, spec.Seed = 2, 2, 5
		t.Run(spec.Name(), func(t *testing.T) {
			sys := config.Build(spec)
			res, err := Run(sys, smallWL(Graph))
			if err != nil {
				t.Fatal(err)
			}
			var total sim.Time
			var completed uint64
			var maxLat sim.Time
			for _, sq := range sys.AccelSeqs {
				total += sq.TotalLatency
				completed += sq.Completed
				maxLat = max(maxLat, sq.MaxLatency)
			}
			h := &res.AccelLat
			if uint64(h.N()) != res.AccelAccesses || res.AccelAccesses != completed {
				t.Fatalf("AccelLat holds %d observations, AccelAccesses %d, sequencers completed %d",
					h.N(), res.AccelAccesses, completed)
			}
			if want := float64(total) / float64(completed); h.Mean() != want || h.Max() != float64(maxLat) {
				t.Fatalf("AccelLat mean %v max %v, want %v and %d", h.Mean(), h.Max(), want, maxLat)
			}
		})
	}
}
