// Whole-machine benchmarks: the two shards CPU and allocation profiles
// are taken on (go test -run '^$' -bench E3_Stress -cpuprofile cpu.out .).
// The paper's tables are regenerated, and their verdicts checked, by
// cmd/xgsim (E1, E2, E5-E12, A1-A4) and cmd/xgcampaign (E3, E4); see
// EXPERIMENTS.md.
package crossingguard_test

import (
	"fmt"
	"testing"

	"crossingguard/internal/config"
	"crossingguard/internal/tester"
	"crossingguard/internal/workload"
)

var benchHosts = []config.HostKind{config.HostHammer, config.HostMESI}

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
