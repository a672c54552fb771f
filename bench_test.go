// Benchmark harness: one benchmark per reproduced table/figure (see the
// experiment index in DESIGN.md §5 and the results in EXPERIMENTS.md).
// Benchmarks report simulation-level metrics (cycles, ticks/op, bytes,
// fractions) via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the paper's numbers alongside Go-level cost.
package crossingguard_test

import (
	"fmt"
	"testing"

	"crossingguard/internal/accel"
	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/core"
	"crossingguard/internal/fuzz"
	"crossingguard/internal/hostproto/hammer"
	"crossingguard/internal/hostproto/mesi"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/perm"
	"crossingguard/internal/seq"
	"crossingguard/internal/tester"
	"crossingguard/internal/workload"
	"crossingguard/internal/xlate"
)

var benchHosts = []config.HostKind{config.HostHammer, config.HostMESI}

// BenchmarkE2_Complexity reports the protocol-complexity comparison of
// §2.4: transient-state counts at the accelerator-facing cache.
func BenchmarkE2_Complexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, aT := accel.StateInventory()
		_, mT := mesi.StateInventory()
		_, hT := hammer.StateInventory()
		if i == 0 {
			b.ReportMetric(float64(len(aT)), "accel-transients")
			b.ReportMetric(float64(len(mT)), "mesiL1-transients")
			b.ReportMetric(float64(len(hT)), "hammer-transients")
		}
	}
}

// BenchmarkE3_Stress runs the §4.1 random tester on every organization.
func BenchmarkE3_Stress(b *testing.B) {
	for _, host := range benchHosts {
		for _, org := range config.AllOrgs {
			host, org := host, org
			b.Run(fmt.Sprintf("%v_%v", host, org), func(b *testing.B) {
				var ops uint64
				for i := 0; i < b.N; i++ {
					sys := config.Build(config.Spec{Host: host, Org: org,
						CPUs: 2, AccelCores: 2, Seed: int64(i + 1), Small: true})
					cfg := tester.DefaultConfig(int64(i)*37 + 5)
					cfg.StoresPerLoc = 20
					res, err := tester.Run(sys, cfg)
					if err != nil {
						b.Fatal(err)
					}
					ops += res.Stores + res.Loads
				}
				b.ReportMetric(float64(ops)/float64(b.N), "memops/run")
			})
		}
	}
}

// BenchmarkE4_Fuzz runs the §4.2 rampage against the guard.
func BenchmarkE4_Fuzz(b *testing.B) {
	pool := func() []mem.Addr {
		var p []mem.Addr
		for i := 0; i < 8; i++ {
			p = append(p, mem.Addr(0x10000+i*mem.BlockBytes))
		}
		return p
	}
	for _, host := range benchHosts {
		for _, mode := range []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L} {
			host, mode := host, mode
			b.Run(fmt.Sprintf("%v_%v", host, mode), func(b *testing.B) {
				var viol uint64
				for i := 0; i < b.N; i++ {
					var att *fuzz.Attacker
					sys := config.Build(config.Spec{Host: host, Org: mode,
						CPUs: 2, AccelCores: 1, Seed: int64(i + 3), Small: true, Timeout: 5000,
						CustomAccel: func(s *config.System, accelID, xgID coherence.NodeID) func() int {
							att = fuzz.NewAttacker(accelID, xgID, s.Eng, s.Fab, int64(i+4), pool())
							att.Policy = fuzz.InvRandom
							att.IncludeHostTypes = true
							return nil
						}})
					att.Rampage(1000, 40)
					if !sys.Eng.RunUntil(100_000_000) {
						b.Fatal("fuzz run did not drain")
					}
					if err := sys.AuditHostOnly(); err != nil {
						b.Fatal(err)
					}
					viol += uint64(sys.Log.Count())
				}
				b.ReportMetric(float64(viol)/float64(b.N), "violations/run")
			})
		}
	}
}

func benchWorkload(b *testing.B, host config.HostKind, org config.Org, kind workload.Kind) workload.Result {
	b.Helper()
	cfg := workload.DefaultConfig(kind)
	cfg.AccessesPerCore = 800
	sys := config.Build(config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 1,
		Seed: 7, Perms: workload.Perms(cfg)})
	res, err := workload.Run(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkE5_Runtime regenerates the normalized-runtime figure: cycles
// per organization (normalize to accel-side offline).
func BenchmarkE5_Runtime(b *testing.B) {
	for _, host := range benchHosts {
		for _, org := range config.AllOrgs {
			host, org := host, org
			b.Run(fmt.Sprintf("%v_%v", host, org), func(b *testing.B) {
				var cycles float64
				for i := 0; i < b.N; i++ {
					cycles += float64(benchWorkload(b, host, org, workload.Blocked).Cycles)
				}
				b.ReportMetric(cycles/float64(b.N), "sim-cycles")
			})
		}
	}
}

// BenchmarkE6_Latency regenerates the mean accelerator access latency
// figure.
func BenchmarkE6_Latency(b *testing.B) {
	for _, org := range []config.Org{config.OrgAccelSide, config.OrgHostSide,
		config.OrgXGFull1L, config.OrgXGFull2L} {
		org := org
		b.Run(org.String(), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				lat += benchWorkload(b, config.HostMESI, org, workload.Graph).AccelAvgLat
			}
			b.ReportMetric(lat/float64(b.N), "ticks/access")
		})
	}
}

// BenchmarkE7_PutS regenerates the §2.1 PutS-overhead measurement.
func BenchmarkE7_PutS(b *testing.B) {
	for _, host := range benchHosts {
		host := host
		b.Run(host.String(), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				cfg := workload.DefaultConfig(workload.Reduction)
				cfg.AccessesPerCore = 1500
				sys := config.Build(config.Spec{Host: host, Org: config.OrgXGFull1L,
					CPUs: 2, AccelCores: 2, Seed: int64(i + 11)})
				res, err := workload.Run(sys, cfg)
				if err != nil {
					b.Fatal(err)
				}
				frac += res.PutSFrac
			}
			b.ReportMetric(100*frac/float64(b.N), "PutS-%")
		})
	}
}

// BenchmarkE8_Storage regenerates the Full State vs Transactional storage
// comparison (§2.3).
func BenchmarkE8_Storage(b *testing.B) {
	for _, mode := range []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L} {
		mode := mode
		b.Run(mode.Mode().String(), func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				cfg := workload.DefaultConfig(workload.Blocked)
				cfg.AccessesPerCore = 4000
				cfg.Footprint = 1 << 17
				sys := config.Build(config.Spec{Host: config.HostMESI, Org: mode,
					CPUs: 1, AccelCores: 1, Seed: int64(i + 13), AccelL1KB: 16})
				p := 0
				sys.Eng.Ticker(500, func() {
					for _, g := range sys.Guards {
						if v := g.StorageBytes(); v > p {
							p = v
						}
					}
				})
				if _, err := workload.Run(sys, cfg); err != nil {
					b.Fatal(err)
				}
				peak += float64(p)
			}
			b.ReportMetric(peak/float64(b.N), "guard-bytes")
		})
	}
}

// BenchmarkE9_DoS regenerates the §2.5 rate-limiting experiment: CPU
// latency with an idle, flooding, and rate-limited accelerator.
func BenchmarkE9_DoS(b *testing.B) {
	scenarios := []struct {
		name  string
		flood bool
		rate  *core.RateLimit
	}{
		{"idle", false, nil},
		{"flood", true, nil},
		{"flood_limited", true, core.NewRateLimit(8, 200)},
	}
	for _, sc := range scenarios {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				lat += dosRun(b, sc.flood, sc.rate, int64(i+17))
			}
			b.ReportMetric(lat/float64(b.N), "cpu-ticks/access")
		})
	}
}

func dosRun(b *testing.B, flood bool, rate *core.RateLimit, seed int64) float64 {
	b.Helper()
	var att *fuzz.Attacker
	var pool []mem.Addr
	for i := 0; i < 64; i++ {
		pool = append(pool, mem.Addr(0x300000+i*mem.BlockBytes))
	}
	sys := config.Build(config.Spec{Host: config.HostHammer, Org: config.OrgXGTxn1L,
		CPUs: 2, AccelCores: 1, Seed: seed, Rate: rate, Timeout: 50_000,
		CustomAccel: func(s *config.System, accelID, xgID coherence.NodeID) func() int {
			att = fuzz.NewAttacker(accelID, xgID, s.Eng, s.Fab, seed+1, pool)
			att.Policy = fuzz.InvCorrectAck
			return nil
		}})
	if flood {
		i := 0
		var fire func()
		fire = func() {
			att.Send(coherence.AGetS, pool[i%len(pool)], nil)
			i++
			if i < 60_000 {
				sys.Eng.Schedule(2, fire)
			}
		}
		sys.Eng.Schedule(1, fire)
	}
	done := 0
	var step func(sq *seq.Sequencer, i int)
	step = func(sq *seq.Sequencer, i int) {
		if i >= 800 {
			done++
			if done == len(sys.CPUSeqs) {
				sys.Eng.Stop()
			}
			return
		}
		a := mem.Addr(0x300000 + (i*mem.BlockBytes)%(1<<13))
		if i%3 == 0 {
			sq.Store(a, byte(i), func(*seq.Op) { step(sq, i+1) })
		} else {
			sq.Load(a, func(*seq.Op) { step(sq, i+1) })
		}
	}
	for _, sq := range sys.CPUSeqs {
		sq := sq
		sys.Eng.Schedule(1, func() { step(sq, 0) })
	}
	sys.Eng.RunUntil(100_000_000)
	var lat float64
	for _, sq := range sys.CPUSeqs {
		lat += sq.AvgLatency()
	}
	return lat / float64(len(sys.CPUSeqs))
}

// BenchmarkE10_BlockXlate regenerates the §2.5 block-size translation
// measurement: 128-byte accelerator blocks over the 64-byte host.
func BenchmarkE10_BlockXlate(b *testing.B) {
	for _, host := range benchHosts {
		host := host
		b.Run(host.String(), func(b *testing.B) {
			var merges float64
			for i := 0; i < b.N; i++ {
				var wide *xlate.WideAccel
				var sq *seq.Sequencer
				sys := config.Build(config.Spec{Host: host, Org: config.OrgXGFull1L,
					CPUs: 1, AccelCores: 1, Seed: int64(i + 19), Timeout: 50_000,
					CustomAccel: func(s *config.System, accelID, xgID coherence.NodeID) func() int {
						wide = xlate.NewWideAccel(accelID, "wide", s.Eng, s.Fab, xgID, 16, 4)
						sq = seq.New(350, "wacc", s.Eng, s.Fab, accelID)
						s.Fab.SetRoutePair(sq.ID(), accelID, network.Config{Latency: 1, Ordered: true})
						return wide.Outstanding
					}})
				n := 0
				var step func()
				step = func() {
					if n >= 1200 {
						return
					}
					a := mem.Addr(0x100000 + (n*32)%(1<<13))
					n++
					if n%4 == 0 {
						sq.Store(a, byte(n), func(*seq.Op) { step() })
					} else {
						sq.Load(a, func(*seq.Op) { step() })
					}
				}
				sys.Eng.Schedule(1, step)
				if !sys.Eng.RunUntil(100_000_000) {
					b.Fatal("did not drain")
				}
				if sys.Log.Count() != 0 {
					b.Fatalf("guard errors: %v", sys.Log.Errors[0])
				}
				merges += float64(wide.Merges)
			}
			b.ReportMetric(merges/float64(b.N), "merged-fills/run")
		})
	}
}

// BenchmarkE11_Timeout regenerates the Guarantee 2c recovery measurement:
// how long a CPU write stalls when the accelerator ignores an Invalidate.
func BenchmarkE11_Timeout(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		var att *fuzz.Attacker
		sys := config.Build(config.Spec{Host: config.HostMESI, Org: config.OrgXGFull1L,
			CPUs: 1, AccelCores: 1, Seed: int64(i + 23), Timeout: 5000,
			CustomAccel: func(s *config.System, accelID, xgID coherence.NodeID) func() int {
				att = fuzz.NewAttacker(accelID, xgID, s.Eng, s.Fab, int64(i+24),
					[]mem.Addr{0x10000})
				att.Policy = fuzz.InvIgnore
				return nil
			}})
		att.Send(coherence.AGetM, 0x10000, nil)
		sys.Eng.RunUntilQuiet()
		start := sys.Eng.Now()
		done := false
		sys.CPUSeqs[0].Store(0x10000, 1, func(*seq.Op) { done = true })
		sys.Eng.RunUntilQuiet()
		if !done {
			b.Fatal("CPU store never completed")
		}
		total += float64(sys.Eng.Now() - start)
	}
	b.ReportMetric(total/float64(b.N), "recovery-ticks")
}

// BenchmarkE12_SnoopFilter measures the §3.2 side-channel defense: host
// snoops answered without consulting the accelerator.
func BenchmarkE12_SnoopFilter(b *testing.B) {
	var filtered float64
	for i := 0; i < b.N; i++ {
		perms := perm.NewTable() // accelerator may touch nothing
		var att *fuzz.Attacker
		sys := config.Build(config.Spec{Host: config.HostHammer, Org: config.OrgXGTxn1L,
			CPUs: 2, AccelCores: 1, Seed: int64(i + 29), Perms: perms, Timeout: 5000,
			CustomAccel: func(s *config.System, accelID, xgID coherence.NodeID) func() int {
				att = fuzz.NewAttacker(accelID, xgID, s.Eng, s.Fab, int64(i+30),
					[]mem.Addr{0x10000})
				att.Policy = fuzz.InvCorrectAck
				return nil
			}})
		for j := 0; j < 50; j++ {
			sys.CPUSeqs[j%2].Store(mem.Addr(0x40000+j*64), byte(j), nil)
		}
		sys.Eng.RunUntilQuiet()
		if att.Invs != 0 {
			b.Fatalf("side channel: accelerator observed %d invalidations", att.Invs)
		}
		filtered += float64(sys.Guards[0].SnoopsFiltered)
	}
	b.ReportMetric(filtered/float64(b.N), "snoops-filtered/run")
}
