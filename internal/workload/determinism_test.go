package workload

import (
	"fmt"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/network"
)

// TestEndToEndDeterminism validates the claim DESIGN.md and EXPERIMENTS.md
// make: identical seeds produce bit-for-bit identical runs — cycle
// counts, latencies, traffic, and guard statistics — for every host and
// organization. Reviewers regenerating the tables get the same numbers.
// The fabric's VisitStats walk, which reports and fingerprints read, is
// part of the run: it visits the same channels in the same order.
func TestEndToEndDeterminism(t *testing.T) {
	run := func(host config.HostKind, org config.Org) string {
		cfg := DefaultConfig(Graph)
		cfg.AccessesPerCore = 400
		sys := config.Build(config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 2,
			Seed: 1234, Perms: Perms(cfg)})
		res, err := Run(sys, cfg)
		if err != nil {
			t.Fatalf("%v/%v: %v", host, org, err)
		}
		fp := fmt.Sprintf("cycles=%d lat=%.6f cpu=%.6f bytes=%d puts=%.6f snoops=%d/%d",
			res.Cycles, res.AccelAvgLat, res.CPUAvgLat, res.CrossingBytes,
			res.PutSFrac, res.SnoopsFiltered, res.SnoopsForwarded)
		fp += fmt.Sprintf(" events=%d end=%d", sys.Eng.Executed, sys.Eng.Now())
		sys.Fab.VisitStats(func(src, dst coherence.NodeID, s *network.Stats) {
			fp += fmt.Sprintf(" %d>%d:%d", src, dst, s.Bytes)
		})
		return fp
	}
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range config.AllOrgs {
			host, org := host, org
			t.Run(fmt.Sprintf("%v/%v", host, org), func(t *testing.T) {
				a := run(host, org)
				b := run(host, org)
				if a != b {
					t.Fatalf("two identical runs diverged:\n  %s\n  %s", a, b)
				}
			})
		}
	}
}

// TestSeedsActuallyMatter guards against accidentally ignoring the seed
// (a constant-latency network would silently weaken the stress tests).
func TestSeedsActuallyMatter(t *testing.T) {
	cfg := DefaultConfig(Graph)
	cfg.AccessesPerCore = 400
	cycles := func(seed int64) uint64 {
		sys := config.Build(config.Spec{Host: config.HostMESI, Org: config.OrgXGFull1L, CPUs: 2, AccelCores: 2,
			Seed: seed, Perms: Perms(cfg)})
		res, err := Run(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles)
	}
	if cycles(1) == cycles(2) && cycles(2) == cycles(3) {
		t.Fatal("three different seeds produced identical runs; jitter is dead")
	}
}
