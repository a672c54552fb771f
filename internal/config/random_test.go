package config

import (
	"fmt"
	"math/rand"
	"testing"

	"crossingguard/internal/mem"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/seq"
)

// TestRandomMultiDevice drives random loads and stores from every core of
// machines with one or two devices of two to four cores each, on both guard
// variants, both device hierarchies, both hosts and both cache sizes. Each
// core keeps two accesses in flight to 4 bytes in each of 10 lines, so the
// lines move between the CPUs and the devices, and between the devices,
// while recalls and Puts race. Every machine must drain with nothing
// outstanding, no error logged and a clean audit. The seed picks the shape
// and the accesses.
func TestRandomMultiDevice(t *testing.T) {
	const (
		lines, bytes = 10, 4
		perChain     = 24 // accesses each of a core's two chains issues
	)
	// Seeds 1 to seeds for each configuration, fixed before the first run
	// and never filtered; a -race build runs the first few.
	seeds := int64(60)
	if raceflag.Enabled {
		seeds = 4
	}
	for _, host := range []HostKind{HostHammer, HostMESI} {
		for _, org := range []Org{OrgXGFull1L, OrgXGTxn1L, OrgXGFull2L, OrgXGTxn2L} {
			for _, small := range []bool{true, false} {
				name := fmt.Sprintf("%v/%v/small=%t", host, org, small)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= seeds; seed++ {
						rng := rand.New(rand.NewSource(seed))
						s := Build(Spec{Host: host, Org: org, CPUs: 2, AccelCores: 2 + rng.Intn(3),
							Accels: 1 + rng.Intn(2), Seed: seed, Small: small})
						done := 0
						var chain func(sq *seq.Sequencer, left int)
						chain = func(sq *seq.Sequencer, left int) {
							if left == 0 {
								return
							}
							addr := mem.Addr(0x4000 + rng.Intn(lines)*mem.BlockBytes + rng.Intn(bytes))
							next := func(*seq.Op) {
								done++
								chain(sq, left-1)
							}
							if rng.Intn(2) == 0 {
								sq.Load(addr, next)
							} else {
								sq.Store(addr, byte(rng.Intn(256)), next)
							}
						}
						seqs := s.Sequencers()
						for _, sq := range seqs {
							chain(sq, perChain)
							chain(sq, perChain)
						}
						shape := fmt.Sprintf("seed %d (%d devices of %d cores)", seed, s.Spec.Accels, s.Spec.AccelCores)
						if !s.Eng.RunUntil(50_000_000) {
							t.Fatalf("%s: the engine did not drain", shape)
						}
						if n := s.Outstanding(); n != 0 || done != 2*perChain*len(seqs) {
							t.Fatalf("%s: %d transactions outstanding at quiesce, %d accesses done", shape, n, done)
						}
						if s.Log.Count() != 0 {
							t.Fatalf("%s: %v", shape, s.Log.Errors[0])
						}
						if err := s.Audit(); err != nil {
							t.Fatalf("%s: audit: %v", shape, err)
						}
						s.Close()
					}
				})
			}
		}
	}
}
