package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 3) })
	e.RunUntilQuiet()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, func() { got = append(got, i) })
	}
	e.RunUntilQuiet()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: got[%d]=%d", i, got[i])
		}
	}
}

func TestZeroDelayRunsThisTick(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(3, func() {
		e.Schedule(0, func() {
			if e.Now() != 3 {
				t.Errorf("zero-delay event at t=%d, want 3", e.Now())
			}
			ran = true
		})
	})
	e.RunUntilQuiet()
	if !ran {
		t.Fatal("zero-delay event never ran")
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt in the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.RunUntilQuiet()
}

func TestNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Schedule(nil) did not panic")
		}
	}()
	NewEngine().Schedule(1, nil)
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	quiet := e.RunUntil(12)
	if quiet {
		t.Fatal("RunUntil reported quiet with events pending")
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %d, want 12", e.Now())
	}
	if !e.RunUntil(100) {
		t.Fatal("RunUntil(100) should drain")
	}
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all 4", fired)
	}
}

// TestRunUntilPastDeadlineKeepsClock: a deadline behind the clock runs
// nothing and must not rewind Now — a rewound clock would let Schedule
// order new events before ones that already ran, and would move the
// wheel's window off the events it holds.
func TestRunUntilPastDeadlineKeepsClock(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(50, func() { ran = true })
	if e.RunUntil(20) || e.Now() != 20 {
		t.Fatalf("RunUntil(20): Now = %d, want 20 with the event pending", e.Now())
	}
	if e.RunUntil(5) {
		t.Fatal("RunUntil(5) reported quiet with an event pending")
	}
	if e.Now() != 20 {
		t.Fatalf("RunUntil(5) after RunUntil(20) moved the clock to %d", e.Now())
	}
	e.Schedule(0, func() {
		if e.Now() != 20 {
			t.Errorf("zero-delay event ran at t=%d, want 20", e.Now())
		}
	})
	e.RunUntilQuiet()
	if !ran || e.Now() != 50 {
		t.Fatalf("ran=%v Now=%d, want the pending event to run at 50", ran, e.Now())
	}
	if !e.RunUntil(10) || e.Now() != 50 {
		t.Fatalf("RunUntil(10) on a drained queue: Now = %d, want 50 and quiet", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.RunUntilQuiet()
	if n != 3 {
		t.Fatalf("ran %d events after Stop, want 3", n)
	}
	// Remaining events still runnable.
	e.RunUntilQuiet()
	if n != 10 {
		t.Fatalf("resume ran to %d, want 10", n)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	n := 0
	var cancel func()
	cancel = e.Ticker(10, func() {
		n++
		if n == 5 {
			cancel()
		}
	})
	e.RunUntilQuiet()
	if n != 5 {
		t.Fatalf("ticker fired %d times, want 5", n)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
}

// A stopped ticker leaves nothing queued, whether it is stopped from
// outside a tick or inside one, so it neither counts as pending nor moves the
// clock a period further.
func TestTickerCancelLeavesNothingQueued(t *testing.T) {
	for _, period := range []Time{10, horizon + 10} { // next tick in the wheel, in the far heap
		e := NewEngine()
		n := 0
		cancel := e.Ticker(period, func() { n++ })
		e.Schedule(3*period+1, func() {})
		e.RunUntil(3*period + 1)
		cancel()
		if n != 3 || e.Pending() != 0 {
			t.Fatalf("period %d: %d ticks, %d events pending after cancel, want 3, 0", period, n, e.Pending())
		}
		if end := e.RunUntilQuiet(); end != 3*period+1 || n != 3 {
			t.Fatalf("period %d: ran on to tick %d (%d ticks) after cancel", period, end, n)
		}
		cancel() // a second cancel finds nothing to take
		var stop func()
		stop = e.Ticker(period, func() { stop() })
		if e.RunUntilQuiet(); e.Pending() != 0 || e.Now() != 4*period+1 {
			t.Fatalf("period %d: cancel from inside the tick left %d pending, clock %d", period, e.Pending(), e.Now())
		}
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Ticker(0) did not panic")
		}
	}()
	NewEngine().Ticker(0, func() {})
}

// Property: events always execute in nondecreasing timestamp order,
// regardless of insertion order.
func TestPropertyTimestampOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, d := range delays {
			d := Time(d)
			e.Schedule(d, func() { seen = append(seen, d) })
		}
		e.RunUntilQuiet()
		return sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two engines fed the same randomized schedule execute the same
// number of events and end at the same time (determinism).
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		run := func() (uint64, Time) {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			var rec func()
			count := int(n)
			rec = func() {
				if count <= 0 {
					return
				}
				count--
				e.Schedule(Time(rng.Intn(50)), rec)
			}
			for i := 0; i < 5; i++ {
				e.Schedule(Time(rng.Intn(20)), rec)
			}
			end := e.RunUntilQuiet()
			return e.Executed, end
		}
		n1, t1 := run()
		n2, t2 := run()
		return n1 == n2 && t1 == t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 1000 {
			e.Schedule(1, rec)
		}
	}
	e.Schedule(0, rec)
	e.RunUntilQuiet()
	if depth != 1000 {
		t.Fatalf("depth = %d, want 1000", depth)
	}
	if e.Now() != 999 {
		t.Fatalf("Now = %d, want 999", e.Now())
	}
}
