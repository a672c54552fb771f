package sim_test

import (
	"testing"

	"crossingguard/internal/raceflag"
	"crossingguard/internal/sim"
)

// TestEngineScheduleAllocFree pins the kernel's allocation budget:
// steady-state Schedule+step cycles on a warmed engine allocate nothing
// (the only permitted allocation is amortized growth of the node slab
// and of the far heap's backing array, which the warm-up phase has
// already paid). The far variant sends every event through the far heap
// and its migration into the wheel.
func TestEngineScheduleAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	for name, base := range map[string]sim.Time{"wheel": 0, "far": sim.Horizon} {
		e := sim.NewEngine()
		fn := func() {}
		for i := 0; i < 1024; i++ {
			e.Schedule(base+sim.Time(i%13), fn)
		}
		e.RunUntilQuiet()
		allocs := testing.AllocsPerRun(200, func() {
			for i := 0; i < 64; i++ {
				e.Schedule(base+sim.Time(i%13), fn)
			}
			e.RunUntilQuiet()
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Schedule+drain allocated %v objects/run, want 0", name, allocs)
		}
	}
}

// TestScheduleEventAllocFree pins the pooled-event contract: scheduling
// a prebound Timed allocates nothing even on a cold (but pre-grown)
// queue.
func TestScheduleEventAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	e := sim.NewEngine()
	tev := sim.NewTimed(func() {})
	for i := 0; i < 256; i++ {
		e.ScheduleEvent(sim.Time(i%7), tev)
	}
	e.RunUntilQuiet()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.ScheduleEvent(sim.Time(i%7), tev)
		}
		e.RunUntilQuiet()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleEvent allocated %v objects/run, want 0", allocs)
	}
}
