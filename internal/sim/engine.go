// Package sim provides a deterministic discrete-event simulation kernel.
//
// All protocol components in this repository are driven by a single
// Engine: a queue of (time, sequence, Event) entries executed in strict
// timestamp order, with FIFO tie-breaking by insertion order.
// Determinism is a hard requirement for debugging coherence races: given
// the same seed and configuration, a run is bit-for-bit reproducible.
//
// # Hot-path design
//
// The queue is a tick wheel plus a far heap. Every fabric latency, hit
// latency and think time in the simulator is a few hundred ticks at
// most, so an event due within horizon ticks of the clock is appended to
// the FIFO bucket of its tick: one bucket per tick of the window
// [now, now+horizon), found on pop through an occupancy bitmap. Push and
// pop are O(1) and touch no other event. Buckets are intrusive singly
// linked lists through one pooled node slab, so steady-state
// Schedule/step cycles allocate nothing beyond amortized growth of the
// slab. Only long-dated events (the guard's 100 000-tick recall
// watchdogs) go to the far heap, a monomorphic 4-ary min-heap ordered
// by (time, sequence), and move into the wheel as the clock brings
// their tick inside the window; see ARCHITECTURE.md "Hot path &
// allocation discipline" for why that keeps the execution order exactly
// (time, sequence).
//
// What the queue holds is an Event: a value with a Fire method. A pooled
// record — the network fabric's deliveries, a Deferred's or a Lane's
// actions — is its own Event, so queueing it is storing one pointer and the
// record is the only object it ever costs; ScheduleEvent takes any Event
// and allocates nothing per call. Schedule(fn) queues the func value itself,
// which costs nothing either. A callback that needs a payload per
// call — "do this to that line after N ticks" — goes through a Deferred (a
// free list of records, each a payload that fires itself), which keeps that
// discipline in one place.
//
// # Taking an event back
//
// An Event is the engine's until its tick. That suits a short delay: an
// action that is overtaken fires inert a few ticks later, on an event that
// was due anyway. It does not suit a long one. A deadline of 100 000 ticks
// on work that finishes in 200 would sit in the far heap for the rest of
// the run, and the run would not end until the last dead one had fired. A
// Timer is the event that can be taken back: it knows its slot in the far
// heap (the heap is indexed) or its node in the wheel, and Cancel removes
// it, leaving every other event's (time, sequence) position as it was. A
// Lane is Deferred over Timers — payload records whose actions the owner
// cancels — and Ticker's cancel is the same call. So Pending counts, and
// the clock stops at, the events that will actually do something:
// RunUntilQuiet returns the tick the system went quiet.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is the simulated clock, in ticks. One tick loosely corresponds to
// one processor cycle in the performance model.
type Time uint64

// horizon is the wheel's window in ticks: an event with delay < horizon
// goes straight to its tick's bucket, anything later waits in the far
// heap. Over the stress, kernel, fuzz, chaos, recovery and multi-device
// sweeps (13 M schedules) 98.4 % of delays are below 256 ticks — memory
// latency plus fabric hops tops out at 180 — and 0.2 % lie in [256, 512)
// (fault-injected extra delay on top of that). What is left is the
// guard's 100 000-tick recall watchdog (1.35 %) and the fuzz and fault
// injectors' pacing timers of 1 000-8 000 ticks (0.05 %), so 512 sends
// only timers to the far heap. It must be a power of two
// (bucket = tick & wheelMask).
const (
	horizon    = 512
	wheelMask  = horizon - 1
	wheelWords = horizon / 64
)

// Event is what the engine queues: Fire runs it when its tick comes. A
// record that is its own Event (a pointer) is queued without allocating.
type Event interface{ Fire() }

// funcEvent is a plain callback as an Event. A func value is one pointer,
// so converting it to an Event allocates nothing.
type funcEvent func()

// Fire calls f.
func (f funcEvent) Fire() { f() }

// node is one wheel event. Its tick is its bucket's and its sequence is
// its position in the bucket, so it carries neither. Nodes live in the
// engine's slab, not in the events, so one Event may be queued more than
// once at a time.
type node struct {
	ev   Event
	next int32 // next node in the bucket or free list; 0 ends the list
}

// bucket is the FIFO of one tick, as indices into Engine.nodes.
// head == 0 means empty (slot 0 of the slab is never handed out).
type bucket struct{ head, tail int32 }

// event is a far-heap entry: an Event due at least horizon ticks after
// the clock at which it was scheduled. t is the Timer it belongs to (then
// ev is t's timerEv), nil for an event nobody can take back.
type event struct {
	at  Time
	seq uint64 // insertion order among far events; breaks timestamp ties FIFO
	ev  Event
	t   *Timer
}

// before reports whether a must execute before b: earlier timestamp, or
// earlier insertion on a timestamp tie (FIFO). (at, seq) pairs are unique
// because seq increments on every far schedule, so ordering is total and
// the migration order is independent of heap layout.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). Children of slot i
// live at 4i+1..4i+4. A 4-ary layout halves tree depth versus binary,
// trading a few extra sibling compares (cache-resident) for fewer levels
// of swaps. It is indexed: a Timer's event tells the Timer every slot it
// lands in, which is what lets remove find it.
type eventHeap []event

// set stores ev in slot i.
func (h eventHeap) set(i int, ev event) {
	h[i] = ev
	if ev.t != nil {
		ev.t.pos = int32(i + 1)
	}
}

// up places ev at or above the vacant slot i, moving larger parents down.
func (h eventHeap) up(i int, ev event) {
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(h[p]) {
			break
		}
		h.set(i, h[p])
		i = p
	}
	h.set(i, ev)
}

// down places ev at or below the vacant slot i, moving smaller children up.
func (h eventHeap) down(i int, ev event) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(ev) {
			break
		}
		h.set(i, h[m])
		i = m
	}
	h.set(i, ev)
}

// push adds ev, restoring heap order.
func (h *eventHeap) push(ev event) {
	*h = append(*h, event{})
	h.up(len(*h)-1, ev)
}

// remove takes the event in slot i out, refilling the slot from the tail.
// The vacated tail slot is zeroed so the removed event is not retained by
// the backing array.
func (h *eventHeap) remove(i int) event {
	q := *h
	ev := q[i]
	n := len(q) - 1
	moved := q[n]
	q[n] = event{} // release ev: no liveness beyond execution
	q = q[:n]
	*h = q
	switch {
	case i == n:
	case i > 0 && moved.before(q[(i-1)>>2]):
		q.up(i, moved)
	default:
		q.down(i, moved)
	}
	return ev
}

// Timed is a reusable Event around a callback bound once (one closure or
// method-value allocation at construction), for a component's one
// recurring event — the fuzzing attacker's and the adversary's pacing. A
// pooled record does better by being its own Event: nothing to bind.
//
// An Event handed to ScheduleEvent is owned by the engine until it fires;
// it must not be recycled before then unless Fire tolerates concurrent
// pending instances.
type Timed struct {
	// Fn is the callback run when the event fires. It must be non-nil at
	// ScheduleEvent time and should be bound once, at construction.
	Fn func()
}

// NewTimed returns a Timed bound to fn.
func NewTimed(fn func()) *Timed { return &Timed{Fn: fn} }

// Fire calls t.Fn.
func (t *Timed) Fire() { t.Fn() }

// Timer is a scheduled event that can be taken back. An Event handed to the
// engine stays there until its tick; a Timer knows where in the queue it
// waits, so Cancel removes it: nothing is left to fire, to count as pending,
// or to hold the clock open. It is for long-dated events that are usually
// overtaken — the guard's recall deadlines, a ticker — which would otherwise
// pile up in the far heap and stretch every run to the last dead one.
//
// A Timer is queued at most once at a time; it is free to be scheduled again
// from the moment its callback starts or Cancel returns. Bind before first
// use; a Timer must not be copied or moved after that.
type Timer struct {
	ev Event // what the timer runs
	at Time  // due tick, while queued
	// pos says where the Timer waits: 0 not queued, k > 0 far-heap slot k-1,
	// k < 0 wheel node -k (in the bucket of tick at).
	pos int32
}

// Bind sets the callback the timer runs when it fires.
func (t *Timer) Bind(fn func()) { t.ev = funcEvent(fn) }

// timerEv is a Timer as the Event the queue holds: firing it marks the
// timer not queued and runs the timer's event. The Timer itself is no
// Event, so it reaches the queue only through ScheduleTimer, which tracks
// where it waits.
type timerEv Timer

func (t *timerEv) Fire() {
	t.pos = 0
	t.ev.Fire()
}

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is ready to use.
type Engine struct {
	now     Time
	stopped bool

	// Executed counts events run; useful for runaway detection in tests.
	Executed uint64

	// Wheel: wheel[t&wheelMask] is the FIFO of tick t for every t in
	// [now, now+horizon); occ has a bit per non-empty bucket. nodes is the
	// slab the buckets link through and free the list of released slots.
	// The clock never moves backwards, so a bucket is empty again before
	// the window wraps around to it. The scalars sit ahead of the arrays
	// so that every event touches the same two cache lines of the header.
	inWheel int
	free    int32
	nodes   []node
	occ     [wheelWords]uint64
	wheel   [horizon]bucket

	// far holds events due at or beyond now+horizon, ordered by
	// (at, farSeq).
	far    eventHeap
	farSeq uint64
}

// NewEngine returns a fresh engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn after delay ticks (delay 0 means "later this tick",
// after already-queued events at the current time).
func (e *Engine) Schedule(delay Time, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	e.schedule(delay, funcEvent(fn))
}

// ScheduleAt runs fn at absolute time t. Scheduling in the past panics:
// it would silently reorder causality.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) in the past (now=%d)", t, e.now))
	}
	e.Schedule(t-e.now, fn)
}

// ScheduleEvent fires ev after delay ticks, with the same ordering
// semantics as Schedule. It allocates nothing: the queue stores ev itself.
// A nil ev, or a Timed without its Fn, panics.
func (e *Engine) ScheduleEvent(delay Time, ev Event) {
	// schedule refuses nil itself, which keeps this call small enough to
	// inline on the fabric's paths.
	if t, ok := ev.(*Timed); ok && t.Fn == nil {
		panic("sim: ScheduleEvent with nil Timed.Fn")
	}
	e.schedule(delay, ev)
}

// ScheduleEventAt fires ev at absolute time at (panics when at is in the
// past, like ScheduleAt), allocation-free like ScheduleEvent.
func (e *Engine) ScheduleEventAt(at Time, ev Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleEventAt(%d) in the past (now=%d)", at, e.now))
	}
	e.ScheduleEvent(at-e.now, ev)
}

// ScheduleTimer runs t's callback after delay ticks, at the queue position
// Schedule would give it, unless Cancel takes it back first. It allocates
// nothing. Scheduling a Timer that is already queued panics.
func (e *Engine) ScheduleTimer(delay Time, t *Timer) {
	if t == nil || t.ev == nil {
		panic("sim: ScheduleTimer with nil or unbound Timer")
	}
	if t.pos != 0 {
		panic("sim: ScheduleTimer of a Timer that is already queued")
	}
	t.at = e.now + delay
	if delay >= horizon {
		e.pushFar(t.at, (*timerEv)(t), t)
		return
	}
	t.pos = -e.schedule(delay, (*timerEv)(t))
}

// Cancel takes a queued Timer out of the queue and reports whether it was
// there to take: false means it has fired, or was never scheduled. Every
// other event keeps its (time, sequence) position. A far event — the usual
// case, a deadline called off long before it is due — leaves the heap in
// O(log n); one the clock has already brought into the wheel is unlinked
// from its tick's bucket, which is a walk of that one bucket.
func (e *Engine) Cancel(t *Timer) bool {
	switch {
	case t.pos > 0:
		e.far.remove(int(t.pos - 1))
	case t.pos < 0:
		e.unlink(t.at, -t.pos)
	default:
		return false
	}
	t.pos = 0
	return true
}

// pushFar queues ev, for timer t if any, on the far heap for tick at.
func (e *Engine) pushFar(at Time, ev Event, t *Timer) {
	e.farSeq++
	e.far.push(event{at: at, seq: e.farSeq, ev: ev, t: t})
}

// schedule queues ev for now+delay: on its tick's bucket when that lies
// inside the window, returning the wheel node it took, else on the far heap,
// returning 0.
func (e *Engine) schedule(delay Time, ev Event) int32 {
	if ev == nil {
		panic("sim: ScheduleEvent with nil Event")
	}
	if delay >= horizon {
		e.pushFar(e.now+delay, ev, nil)
		return 0
	}
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
	} else {
		if len(e.nodes) == 0 {
			e.nodes = append(e.nodes, node{}) // slot 0 is the nil index
		}
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	e.nodes[i] = node{ev: ev}
	slot := uint(e.now+delay) & wheelMask
	b := &e.wheel[slot]
	if b.head == 0 {
		b.head = i
		e.occ[slot>>6] |= 1 << (slot & 63)
	} else {
		e.nodes[b.tail].next = i
	}
	b.tail = i
	e.inWheel++
	return i
}

// unlink removes node i from the bucket of tick at and frees it.
func (e *Engine) unlink(at Time, i int32) {
	slot := uint(at) & wheelMask
	b := &e.wheel[slot]
	prev := int32(0)
	for j := b.head; j != i; j = e.nodes[j].next {
		if j == 0 {
			panic("sim: Cancel of a Timer its bucket does not hold")
		}
		prev = j
	}
	n := &e.nodes[i]
	if prev == 0 {
		b.head = n.next
	} else {
		e.nodes[prev].next = n.next
	}
	if b.tail == i {
		b.tail = prev
	}
	if b.head == 0 {
		e.occ[slot>>6] &^= 1 << (slot & 63)
	}
	*n = node{next: e.free}
	e.free = i
	e.inWheel--
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.inWheel + len(e.far) }

// Stop makes the current Run/RunUntil/RunUntilQuiet call return after the
// in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// next returns the timestamp of the earliest queued event; the queue
// must not be empty. Far events are all later than wheel events, so the
// far heap is consulted only when the wheel is empty.
func (e *Engine) next() Time {
	if e.inWheel == 0 {
		return e.far[0].at
	}
	start := uint(e.now) & wheelMask
	w := start >> 6
	if b := e.occ[w] >> (start & 63); b != 0 {
		return e.now + Time(bits.TrailingZeros64(b))
	}
	// The last round revisits word w for the slots below start: the ticks
	// that wrapped around the end of the wheel.
	for i := uint(1); ; i++ {
		ww := (w + i) % wheelWords
		if b := e.occ[ww]; b != 0 {
			slot := ww<<6 | uint(bits.TrailingZeros64(b))
			return e.now + Time((slot-start)&wheelMask)
		}
	}
}

// advance moves the clock forward to t and brings every far event whose
// tick the window now covers into the wheel, in (at, seq) order. It runs
// before any event of tick t executes, so a far event always reaches its
// bucket ahead of a direct insert for the same tick — which was
// necessarily scheduled later, from inside the window.
func (e *Engine) advance(t Time) {
	e.now = t
	for len(e.far) > 0 && e.far[0].at-t < horizon {
		ev := e.far.remove(0)
		i := e.schedule(ev.at-t, ev.ev)
		if ev.t != nil {
			ev.t.pos = -i
		}
	}
}

// run executes events in (time, sequence) order until the queue drains,
// the next event is due after deadline, or Stop is called. The clock must
// not be past deadline. The next tick is looked up only when the current
// tick's bucket is empty, so a burst of same-tick events costs one list
// pop each.
func (e *Engine) run(deadline Time) {
	e.stopped = false
	for !e.stopped {
		slot := uint(e.now) & wheelMask
		if e.wheel[slot].head == 0 {
			if e.Pending() == 0 {
				return
			}
			at := e.next()
			if at > deadline {
				return
			}
			e.advance(at)
			slot = uint(at) & wheelMask
		}
		b := &e.wheel[slot]
		i := b.head
		n := &e.nodes[i]
		ev := n.ev
		if b.head = n.next; b.head == 0 {
			e.occ[slot>>6] &^= 1 << (slot & 63)
		}
		// Release the slot: a freed node must not keep ev, and what it
		// refers to, reachable for the rest of the run.
		*n = node{next: e.free}
		e.free = i
		e.inWheel--
		e.Executed++
		ev.Fire()
	}
}

// RunUntilQuiet executes events until the queue drains or Stop is called.
// It returns the time at which the system went quiet. A coherence system
// that goes quiet while transactions are still outstanding is deadlocked;
// callers detect that by checking their own completion state afterwards.
func (e *Engine) RunUntilQuiet() Time {
	e.run(^Time(0))
	return e.now
}

// RunUntil executes events with timestamps <= deadline and leaves the
// clock at deadline when later events remain queued. It reports whether
// the queue went quiet (drained) before the deadline. The clock never
// moves backwards: a deadline in the past runs nothing and leaves Now
// untouched.
func (e *Engine) RunUntil(deadline Time) bool {
	if deadline < e.now {
		return e.Pending() == 0
	}
	e.run(deadline)
	if e.Pending() == 0 {
		return true
	}
	if !e.stopped {
		e.advance(deadline)
	}
	return false
}

// Ticker invokes fn every period ticks until cancel is called. The next
// tick is queued before fn runs, so cancel works from inside fn as from
// outside, and a cancelled ticker leaves nothing in the queue.
func (e *Engine) Ticker(period Time, fn func()) (cancel func()) {
	if period == 0 {
		panic("sim: Ticker with zero period")
	}
	t := new(Timer)
	t.Bind(func() {
		e.ScheduleTimer(period, t)
		fn()
	})
	e.ScheduleTimer(period, t)
	return func() { e.Cancel(t) }
}
