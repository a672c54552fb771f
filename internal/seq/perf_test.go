package seq

import (
	"testing"

	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/sim"
)

// TestSequencerRoundTripAllocFree pins the memop round trip — the
// sequencer issues, a cache hits and completes the request in place, the
// sequencer completes the operation into a bound callback — at zero heap
// objects in steady state, metrics attached: the Op comes off the free
// list carrying its own message, the bookkeeping is a slice and a counter,
// and the latency and channel-depth histograms count without storing.
func TestSequencerRoundTripAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 7, network.Config{Latency: 1, Ordered: true})
	fab.AttachObs(obs.NewRegistry())
	cache := &parkingCache{id: 100, fab: fab}
	fab.Register(cache)
	s := New(1, "seq0", eng, fab, 100, new(OpList))

	var sum int
	done := func(op *Op) { sum += int(op.Result) }
	round := func() {
		// More than MaxOutstanding operations, two per line: the issue
		// queue and the per-line queues are on the path too.
		for i := 0; i < 40; i++ {
			a := mem.Addr(0x1000 + (i/2)*mem.BlockBytes + i%2)
			if i%4 == 3 {
				s.Store(a, byte(i), done)
			} else {
				s.Load(a, done)
			}
		}
		eng.RunUntilQuiet()
	}
	round() // warm-up: Ops, delivery records, the engine's event pool
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round of 40 memops allocated %v objects, want 0", allocs)
	}
	if s.Outstanding() != 0 || s.Completed != 40*102 {
		t.Fatalf("Outstanding=%d Completed=%d after the rounds", s.Outstanding(), s.Completed)
	}
}
