package sim_test

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"crossingguard/internal/sim"
	"crossingguard/internal/sim/simref"
)

// kernel abstracts the engines under differential test. arm schedules an
// event that can be taken back: cancel reports whether it was still queued.
type kernel interface {
	Schedule(delay sim.Time, fn func())
	arm(delay sim.Time, fn func()) (cancel func() bool)
	Now() sim.Time
	Pending() int
	RunUntil(deadline sim.Time) bool
	RunUntilQuiet() sim.Time
}

// prod is the production kernel: arm is a Timer.
type prod struct{ *sim.Engine }

func (k prod) arm(delay sim.Time, fn func()) func() bool {
	t := new(sim.Timer)
	t.Bind(fn)
	k.ScheduleTimer(delay, t)
	return func() bool { return k.Cancel(t) }
}

// ref is the frozen reference kernel, whose cancel scans the queue.
type ref struct{ *simref.Engine }

func (k ref) arm(delay sim.Time, fn func()) func() bool {
	id := k.ScheduleID(delay, fn)
	return func() bool { return k.Cancel(id) }
}

// inert is a kernel without a cancel, as the production one was: a
// cancelled event stays queued and fires as a no-op at its original tick.
type inert struct{ kernel }

func (k inert) arm(delay sim.Time, fn func()) func() bool {
	queued := true
	k.Schedule(delay, func() {
		if queued {
			queued = false
			fn()
		}
	})
	return func() bool {
		was := queued
		queued = false
		return was
	}
}

// edgeDelays are the delays that land an event on either side of the
// production kernel's wheel/far-heap boundary, plus the guard's watchdog
// delay; the reference kernel has no such boundary.
var edgeDelays = [...]sim.Time{sim.Horizon - 1, sim.Horizon, sim.Horizon + 1, 100_000}

// drawDelay returns 0 (same-tick ties), 1-8, an edge delay, or a delay
// spread over the next few windows: a far heap deep enough that taking an
// event out of its middle has to move others both up and down.
func drawDelay(rng *rand.Rand) sim.Time {
	switch k := rng.Intn(8); {
	case k < 2:
		return 0
	case k < 5:
		return sim.Time(1 + rng.Intn(8))
	case k < 6:
		return sim.Horizon + sim.Time(rng.Intn(8*sim.Horizon))
	}
	return edgeDelays[rng.Intn(len(edgeDelays))]
}

// driveRandom feeds eng a pseudo-random self-extending schedule derived
// only from seed and n: initial events at random delays, each firing
// event logging its id and tick and possibly scheduling children. A third
// of the children are armed, and a firing event may cancel an armed one
// drawn at random — queued in the wheel, queued in the far heap, fired
// already or cancelled before — logging what the cancel reported.
//
// When sliced, the queue is run in slices, RunUntil(now+k) interleaved
// with RunUntilQuiet and with schedules made between slices, and the log
// records the clock, the queue length and the verdict after every slice,
// so a kernel that executes the right order but parks the clock or an
// event in the wrong place still diverges from the reference. Unsliced, it
// is one RunUntilQuiet and the log holds only what live events did: the
// form in which a kernel that cancels and one whose cancelled events fire
// inert must agree.
func driveRandom(eng kernel, seed int64, n int, sliced bool) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var log []uint64
	var armed []func() bool
	next := uint64(0)
	budget := n
	var spawn func()
	spawn = func() {
		id := next
		next++
		fire := func() {
			log = append(log, id, uint64(eng.Now()))
			for k := rng.Intn(3); k > 0 && budget > 0; k-- {
				budget--
				spawn()
			}
			if len(armed) > 0 && rng.Intn(2) == 0 {
				took := uint64(0)
				if armed[rng.Intn(len(armed))]() {
					took = 1
				}
				log = append(log, ^uint64(1), took)
			}
		}
		if delay := drawDelay(rng); rng.Intn(3) == 0 {
			armed = append(armed, eng.arm(delay, fire))
		} else {
			eng.Schedule(delay, fire)
		}
	}
	for i := 0; i < 4; i++ {
		id := next
		next++
		d := sim.Time(rng.Intn(4)) * sim.Time(i%2) // half start at t=0: ties
		eng.Schedule(d, func() {
			log = append(log, id, uint64(eng.Now()))
			if budget > 0 {
				budget--
				spawn()
			}
		})
	}
	if !sliced {
		eng.RunUntilQuiet()
		return log
	}
	mark := func(quiet bool) {
		q := uint64(0)
		if quiet {
			q = 1
		}
		log = append(log, ^uint64(0), uint64(eng.Now()), uint64(eng.Pending()), q)
	}
	for slices := 0; eng.Pending() > 0; slices++ {
		if slices == 64 || rng.Intn(4) == 0 {
			eng.RunUntilQuiet()
			mark(true)
			continue
		}
		mark(eng.RunUntil(eng.Now() + drawDelay(rng)))
		// Schedule from outside a callback too: the clock may just have
		// jumped to a deadline rather than to an event.
		if budget > 0 && rng.Intn(2) == 0 {
			budget--
			spawn()
		}
	}
	return log
}

// diverges reports the first index at which two driveRandom logs differ,
// or -1.
func diverges(got, want []uint64) int {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// TestDifferentialAgainstReference drives the wheel-plus-far-heap kernel
// and the frozen container/heap kernel with identical randomized
// schedule/cancel mixes and requires identical execution order, clock and
// queue length after every run slice — including zero-delay same-tick FIFO
// ties, events that enter the wheel through the far heap, and cancels that
// catch their event on either side of that move, which is where a queue
// rewrite would betray determinism.
func TestDifferentialAgainstReference(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		return diverges(driveRandom(prod{sim.NewEngine()}, seed, int(n), true),
			driveRandom(ref{simref.NewEngine()}, seed, int(n), true)) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelKeepsLiveOrder is the cancel's own contract: taking events out
// of the queue changes nothing for the ones left in. The live events run at
// the same ticks in the same order, and every cancel reports the same, as on
// a kernel where a cancelled event stays queued and fires as a no-op — on
// the production queue, and on the reference with its scanning cancel.
func TestCancelKeepsLiveOrder(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		want := driveRandom(inert{prod{sim.NewEngine()}}, seed, int(n), false)
		return diverges(driveRandom(prod{sim.NewEngine()}, seed, int(n), false), want) < 0 &&
			diverges(driveRandom(ref{simref.NewEngine()}, seed, int(n), false), want) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEngineOrder is the same two differential checks under the native
// fuzzer, with longer schedules.
func FuzzEngineOrder(f *testing.F) {
	f.Add(int64(1), uint16(64))
	f.Add(int64(-7), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		for _, sliced := range []bool{true, false} {
			got := driveRandom(prod{sim.NewEngine()}, seed, int(n), sliced)
			want := driveRandom(ref{simref.NewEngine()}, seed, int(n), sliced)
			if i := diverges(got, want); i >= 0 {
				t.Fatalf("seed %d n %d: log diverges from the reference at entry %d of %d/%d", seed, n, i, len(got), len(want))
			}
			if !sliced {
				want = driveRandom(inert{prod{sim.NewEngine()}}, seed, int(n), false)
				if i := diverges(got, want); i >= 0 {
					t.Fatalf("seed %d n %d: log diverges from the run with inert cancels at entry %d of %d/%d", seed, n, i, len(got), len(want))
				}
			}
		}
	})
}

// TestDifferentialSameTickStorm pins the pure-tie case: hundreds of
// events on one tick, popped interleaved with same-tick reschedules.
func TestDifferentialSameTickStorm(t *testing.T) {
	run := func(eng kernel) []int {
		var order []int
		for i := 0; i < 300; i++ {
			i := i
			eng.Schedule(0, func() {
				order = append(order, i)
				if i%7 == 0 {
					j := i + 1000
					eng.Schedule(0, func() { order = append(order, j) })
				}
			})
		}
		eng.RunUntilQuiet()
		return order
	}
	got, want := run(prod{sim.NewEngine()}), run(ref{simref.NewEngine()})
	if len(got) != len(want) {
		t.Fatalf("executed %d events, reference executed %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order diverges at %d: got %d, reference %d", i, got[i], want[i])
		}
	}
}

// TestPoppedEventReleased is the regression test for the old kernel's
// Pop leak: the backing array slot of a popped event kept the closure —
// and everything it captured — alive for the rest of the run. A freed
// wheel node drops its fn, and so does the far-heap slot an event
// migrated out of, so once an event has run, its closure is collectable
// even while the engine retains a warm queue.
func TestPoppedEventReleased(t *testing.T) {
	for name, delay := range map[string]sim.Time{"wheel": 1, "far": sim.Horizon + 5} {
		e := sim.NewEngine()
		collected := make(chan struct{})
		func() {
			obj := new([1 << 16]byte)
			runtime.SetFinalizer(obj, func(*[1 << 16]byte) { close(collected) })
			e.Schedule(delay, func() { obj[0] = 1 })
		}()
		// Later events, one per structure, keep the slab and the heap's
		// backing array live past the pop: exactly the long-RunUntil shape
		// that used to pin every closure.
		e.Schedule(delay+1, func() {})
		e.Schedule(delay+10*sim.Horizon, func() {})
		if e.RunUntil(delay) {
			t.Fatalf("%s: queue unexpectedly drained", name)
		}
		released := false
		for i := 0; i < 100 && !released; i++ {
			runtime.GC()
			select {
			case <-collected:
				released = true
			default:
				time.Sleep(5 * time.Millisecond)
			}
		}
		if !released {
			t.Errorf("%s: executed event's closure still reachable: its queue slot was not cleared", name)
		}
	}
}

// TestScheduleEventOrdering checks Timed events interleave with plain
// closures under the same (time, seq) FIFO contract.
func TestScheduleEventOrdering(t *testing.T) {
	e := sim.NewEngine()
	var order []int
	tev := sim.NewTimed(func() { order = append(order, 1) })
	e.Schedule(5, func() { order = append(order, 0) })
	e.ScheduleEvent(5, tev)
	e.Schedule(5, func() { order = append(order, 2) })
	e.ScheduleEventAt(3, sim.NewTimed(func() { order = append(order, -1) }))
	e.RunUntilQuiet()
	want := []int{-1, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestScheduleEventReuse schedules one Timed many times (sequentially,
// as the pooled-record contract requires) and checks every firing runs.
func TestScheduleEventReuse(t *testing.T) {
	e := sim.NewEngine()
	n := 0
	var tev *sim.Timed
	tev = sim.NewTimed(func() {
		n++
		if n < 100 {
			e.ScheduleEvent(2, tev)
		}
	})
	e.ScheduleEvent(1, tev)
	e.RunUntilQuiet()
	if n != 100 {
		t.Fatalf("fired %d times, want 100", n)
	}
	if e.Now() != 1+99*2 {
		t.Fatalf("Now = %d, want %d", e.Now(), 1+99*2)
	}
}

// TestScheduleEventNilPanics pins the nil contracts.
func TestScheduleEventNilPanics(t *testing.T) {
	for name, fn := range map[string]func(*sim.Engine){
		"nil-timed": func(e *sim.Engine) { e.ScheduleEvent(1, nil) },
		"nil-fn":    func(e *sim.Engine) { e.ScheduleEvent(1, &sim.Timed{}) },
		"past": func(e *sim.Engine) {
			e.Schedule(5, func() {})
			e.RunUntilQuiet()
			e.ScheduleEventAt(1, sim.NewTimed(func() {}))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(sim.NewEngine())
		}()
	}
}

// TestTimerContracts pins what ScheduleTimer and Cancel refuse, and that
// neither a Timer nor a lane's Armed is an Event: a Timer reaches the queue
// only through ScheduleTimer, which tracks where it waits, and an Armed is
// its owner's to Cancel, never to fire.
func TestTimerContracts(t *testing.T) {
	e := sim.NewEngine()
	var tm sim.Timer
	tm.Bind(func() {})
	if e.Cancel(&tm) {
		t.Fatal("Cancel of a Timer never scheduled reported true")
	}
	e.ScheduleTimer(5, &tm)
	if !e.Cancel(&tm) || e.Cancel(&tm) || e.Pending() != 0 {
		t.Fatalf("Cancel then Cancel: want true, false and an empty queue (%d pending)", e.Pending())
	}
	e.ScheduleTimer(5, &tm) // free to go again once cancelled
	e.RunUntilQuiet()
	if e.Cancel(&tm) {
		t.Fatal("Cancel of a fired Timer reported true")
	}
	var l sim.Lane[int]
	l.Bind(e, 5, func(int) {})
	a := l.Defer(1)
	e.RunUntilQuiet()
	for name, fn := range map[string]func(){
		"unbound":          func() { e.ScheduleTimer(1, new(sim.Timer)) },
		"queued twice":     func() { e.ScheduleTimer(1, &tm); e.ScheduleTimer(1, &tm) },
		"cancel after run": func() { a.Cancel() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	for _, v := range []any{&tm, a} {
		if _, ok := v.(sim.Event); ok {
			t.Errorf("%T is a sim.Event", v)
		}
	}
}
