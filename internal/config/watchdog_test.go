package config

import (
	"strings"
	"testing"

	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// TestEndTimeIsLastLiveEvent runs a stress shard on every guarded
// organization. The accelerator answers every Invalidate, so no Guarantee 2c
// deadline expires: each is cancelled when its recall closes, and the shard
// must end where its last message did — far below the 100 000-tick Timeout,
// which is where a deadline left queued would take the clock. At every
// message along the way each guard holds exactly one armed deadline per open
// recall (the first thing CheckQuiesced checks).
func TestEndTimeIsLastLiveEvent(t *testing.T) {
	for _, spec := range allSpecs(0, true) {
		if !spec.Org.UsesXG() {
			continue
		}
		spec := spec
		t.Run(spec.Name(), func(t *testing.T) {
			var last sim.Time
			var unpaired error
			res, sys := stressShardOn(t, spec, func(sys *System) {
				sys.Fab.Bus = obs.NewBus(sinkFunc(func(e obs.Event) error {
					last = e.Tick
					for _, g := range sys.Guards {
						if err := g.CheckQuiesced(); err != nil && unpaired == nil && strings.Contains(err.Error(), "watchdogs armed") {
							unpaired = err
						}
					}
					return nil
				}))
			})
			var recalls, timeouts uint64
			for _, g := range sys.Guards {
				recalls += g.SnoopsForwarded
				timeouts += g.Timeouts
			}
			if recalls == 0 || timeouts != 0 {
				t.Fatalf("%d recalls, %d timeouts: want some recalls and no deadline expiring", recalls, timeouts)
			}
			if unpaired != nil {
				t.Fatal(unpaired)
			}
			if res.EndTime < last || res.EndTime >= sys.Spec.Timeout || sys.Eng.Pending() != 0 {
				t.Fatalf("EndTime %d with %d events still queued; the last message was at tick %d and Timeout is %d",
					res.EndTime, sys.Eng.Pending(), last, sys.Spec.Timeout)
			}
		})
	}
}
