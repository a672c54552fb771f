package sim_test

import (
	"testing"

	"crossingguard/internal/config"
	"crossingguard/internal/obs"
	"crossingguard/internal/tester"
)

type sinkFunc func(obs.Event) error

func (f sinkFunc) Emit(e obs.Event) error { return f(e) }

// TestFarHeapBoundedByOpenRecalls runs one benchmark-shaped stress shard on
// the Transactional guard, whose every host forward is a recall, and samples
// the far heap at each message. Each recall arms a 100 000-tick deadline and
// the whole shard is shorter than that, so a kernel that cannot take a
// deadline back holds every one ever armed (about 350 here); with the
// guard cancelling on close it holds the recalls open at that moment.
func TestFarHeapBoundedByOpenRecalls(t *testing.T) {
	sys := config.Build(config.Spec{Host: config.HostHammer, Org: config.OrgXGTxn1L,
		CPUs: 2, AccelCores: 2, Seed: 7, Small: true})
	peak := 0
	sys.Fab.Bus = obs.NewBus(sinkFunc(func(obs.Event) error {
		peak = max(peak, sys.Eng.FarLen())
		return nil
	}))
	cfg := tester.DefaultConfig(7*37 + 5)
	cfg.StoresPerLoc = 20
	if _, err := tester.Run(sys, cfg); err != nil {
		t.Fatal(err)
	}
	var recalls uint64
	for _, g := range sys.Guards {
		recalls += g.SnoopsForwarded
	}
	t.Logf("%d recalls, far heap peaked at %d events", recalls, peak)
	if recalls < 100 {
		t.Fatalf("only %d recalls: the shard no longer exercises the watchdog", recalls)
	}
	if peak > 16 {
		t.Fatalf("far heap peaked at %d events over %d recalls, want at most 16: closed recalls are leaving their deadlines queued", peak, recalls)
	}
}
