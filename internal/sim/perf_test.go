package sim_test

import (
	"slices"
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

// TestDeferredAllocFree pins the record list's contract: once as many
// records exist as are ever pending at once, deferring a payload — near or
// far, from outside or from inside a running action — allocates nothing, and
// each action runs with its own payload at the position Schedule would have
// given it.
func TestDeferredAllocFree(t *testing.T) {
	type payload struct {
		id    int
		chain *int // non-nil: defer a follow-up from inside the action
	}
	e := sim.NewEngine()
	var d sim.Deferred[payload]
	var got []int
	d.Bind(e, func(p payload) {
		got = append(got, p.id)
		if p.chain != nil && *p.chain > 0 {
			*p.chain--
			d.After(2, payload{id: p.id + 100, chain: p.chain})
		}
	})
	chain := 0
	plain := sim.NewTimed(func() { got = append(got, -1) })
	round := func() {
		got = got[:0]
		chain = 3
		for i := 0; i < 32; i++ {
			d.After(sim.Time(i%7), payload{id: i})
		}
		e.ScheduleEvent(3, plain) // between the deferred actions of its tick
		d.After(sim.Horizon+5, payload{id: 32})
		d.After(1, payload{id: 33, chain: &chain})
		e.RunUntilQuiet()
	}
	round()
	var want []int
	for delay := 0; delay < 7; delay++ {
		for i := delay; i < 32; i += 7 {
			want = append(want, i)
		}
		switch delay {
		case 1:
			want = append(want, 33)
		case 3:
			want = append(want, -1, 133) // the plain event, then the chain's first follow-up
		case 5:
			want = append(want, 233)
		}
	}
	want = append(want, 333, 32)
	if !slices.Equal(got, want) {
		t.Fatalf("actions ran in order\n%v, want\n%v", got, want)
	}
	if raceflag.Enabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round of deferred actions allocated %v objects, want 0", allocs)
	}
}

// TestLaneAllocFree: a lane's actions run in the order deferred, each at the
// position Schedule would have given it, and once the lane has as many
// records as are ever armed at once, deferring allocates nothing — even when
// hundreds are armed before the first fires.
func TestLaneAllocFree(t *testing.T) {
	e := sim.NewEngine()
	var l sim.Lane[int]
	var got []int
	l.Bind(e, sim.Horizon+100, func(id int) { got = append(got, id) })
	plain := sim.NewTimed(func() { got = append(got, -1) })
	round := func() {
		got = got[:0]
		for i := 0; i < 300; i++ {
			l.Defer(i)
			if i == 150 {
				e.ScheduleEvent(sim.Horizon+100, plain) // same tick as id 150, after it
			}
			e.RunUntil(e.Now() + sim.Time(i%3)) // ids 0, 3, 6… share a tick with their successor
		}
		e.RunUntilQuiet()
	}
	round()
	var want []int
	for i := 0; i < 300; i++ {
		want = append(want, i)
		if i == 150 {
			want = append(want, -1)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("actions ran in order\n%v, want\n%v", got, want)
	}
	if raceflag.Enabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a round of 300 pending lane actions allocated %v objects, want 0", allocs)
	}
}

// TestLaneCancelAllocFree is the guard's pattern: arm a long deadline, call
// it off a few ticks later. Neither step allocates; the lane and the far
// heap hold what is armed now, not what was armed in the last 100 000 ticks;
// a cancelled action never runs, in the far heap or already in the wheel; and
// the run ends at the last live event, not at the last deadline called off.
func TestLaneCancelAllocFree(t *testing.T) {
	e := sim.NewEngine()
	var far, near sim.Lane[int]
	var ran []int
	run := func(id int) { ran = append(ran, id) }
	far.Bind(e, 100_000, run)
	near.Bind(e, 100, run) // inside the wheel from the start
	nop := sim.NewTimed(func() {})
	var want []int
	for i := 0; i < 300; i += 3 {
		want = append(want, 1000+i)
	}
	round := func() {
		ran = ran[:0]
		held := far.Defer(-1) // stays armed throughout, as a slow recall's does
		var last sim.Time     // when the last near action left armed is due
		for i := 0; i < 300; i++ {
			a, b := far.Defer(i), near.Defer(1000+i)
			e.ScheduleEvent(20, nop)
			e.RunUntil(e.Now() + 20)
			if got := a.Cancel(); got != i {
				t.Fatalf("cancel returned payload %d, want %d", got, i)
			}
			if i%3 != 0 {
				b.Cancel()
			} else {
				last = e.Now() + 80
			}
			if far.Len() != 1 || e.FarLen() != 1 || near.Len() > 2 {
				t.Fatalf("round %d: %d far and %d near actions armed, %d events in the far heap, want 1, at most 2, 1",
					i, far.Len(), near.Len(), e.FarLen())
			}
		}
		held.Cancel()
		if end := e.RunUntilQuiet(); end != last || e.Pending() != 0 {
			t.Fatalf("went quiet at tick %d with %d pending, want %d with 0", end, e.Pending(), last)
		}
	}
	round()
	if !slices.Equal(ran, want) {
		t.Fatalf("actions ran\n%v, want\n%v", ran, want)
	}
	if raceflag.Enabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a round of 600 arms and 500 cancels allocated %v objects, want 0", allocs)
	}
}
