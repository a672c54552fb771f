package campaign

import (
	"strings"
	"testing"
	"time"

	"crossingguard/internal/network"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
	"crossingguard/internal/tester"
)

// stuckSystem is a machine whose Outstanding() never drains: its one
// sequencer talks to a cache node that does not exist, so every issued
// operation is dropped by the fabric and stays open forever.
type stuckSystem struct {
	eng *sim.Engine
	sq  *seq.Sequencer
}

func newStuckSystem() *stuckSystem {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
	sq := seq.New(1, "stuck", eng, fab, 99 /* unregistered cache node */, new(seq.OpList))
	return &stuckSystem{eng: eng, sq: sq}
}

func (s *stuckSystem) Engine() *sim.Engine          { return s.eng }
func (s *stuckSystem) Sequencers() []*seq.Sequencer { return []*seq.Sequencer{s.sq} }
func (s *stuckSystem) Outstanding() int             { return s.sq.Outstanding() }
func (s *stuckSystem) Audit() error                 { return nil }

// TestDeadlockInjection bounds the watchdog path end-to-end: a system
// that can never drain must come back from the campaign runner as a
// classified liveness failure with a captured artifact — the worker pool
// must not hang and healthy neighbor shards must be unaffected.
func TestDeadlockInjection(t *testing.T) {
	specs := []ShardSpec{
		smallSweep()[0], // a healthy shard sharing the pool
		{Custom: func(bool) (tester.System, tester.Config) {
			cfg := tester.DefaultConfig(7)
			cfg.StoresPerLoc = 2
			cfg.Deadline = 100_000
			return newStuckSystem(), cfg
		}},
	}

	done := make(chan *Report, 1)
	go func() { done <- Run(specs, Options{Workers: 2}) }()
	var rep *Report
	select {
	case rep = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("campaign hung on a deadlocked shard")
	}

	if rep.Failures() != 1 {
		t.Fatalf("%d failures, want exactly the injected deadlock", rep.Failures())
	}
	art := rep.Artifacts[0]
	if !strings.Contains(art.Err, "DEADLOCK") && !strings.Contains(art.Err, "LIVENESS") {
		t.Fatalf("deadlock misclassified: %s", art.Err)
	}
	if !strings.Contains(art.Err, "outstanding") && !strings.Contains(art.Err, "open") {
		t.Fatalf("artifact does not report open transactions: %s", art.Err)
	}
	if rep.Shards[0].Err != nil {
		t.Fatalf("healthy shard failed alongside the deadlock: %v", rep.Shards[0].Err)
	}
	// Custom shards are honest about not being replayable from a string.
	if !strings.Contains(art.Repro, "not reproducible") {
		t.Fatalf("custom shard repro should say it is not replayable: %q", art.Repro)
	}
}
