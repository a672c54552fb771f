// Package sim provides a deterministic discrete-event simulation kernel.
//
// All protocol components in this repository are driven by a single
// Engine: a queue of (time, sequence, callback) events executed in strict
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
// Callers that schedule the same logical callback repeatedly (the
// network fabric's delivery records, tickers, pooled protocol events)
// should bind the callback once in a Timed and use ScheduleEvent, which
// is allocation-free per call. A callback that needs a payload per call —
// "do this to that line after N ticks" — goes through a Deferred (a free
// list of records, each a payload and a bound Timed) or, when every call
// waits the same delay, a Lane (one Timed over a ring of payloads), which
// keep that discipline in one place.
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

// node is one wheel event. Its tick is its bucket's and its sequence is
// its position in the bucket, so it carries neither.
type node struct {
	fn   func()
	next int32 // next node in the bucket or free list; 0 ends the list
}

// bucket is the FIFO of one tick, as indices into Engine.nodes.
// head == 0 means empty (slot 0 of the slab is never handed out).
type bucket struct{ head, tail int32 }

// event is a far-heap entry: a callback due at least horizon ticks after
// the clock at which it was scheduled.
type event struct {
	at  Time
	seq uint64 // insertion order among far events; breaks timestamp ties FIFO
	fn  func()
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
// of swaps.
type eventHeap []event

// push adds ev, restoring heap order.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the popped callback is not retained by the backing array.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	moved := q[n]
	q[n] = event{} // release fn: no liveness beyond execution
	q = q[:n]
	if n > 0 {
		// Sift moved down from the root, writing it only at its final
		// slot (half the stores of swap-based sifting).
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if q[j].before(q[m]) {
					m = j
				}
			}
			if !q[m].before(moved) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = moved
	}
	*h = q
	return top
}

// Timed is a reusable scheduled event: the callback is bound once (one
// closure or method-value allocation at construction) and the record is
// then passed to ScheduleEvent any number of times with no per-schedule
// allocation. It is the kernel half of the pooling protocol used by the
// network fabric's delivery records.
//
// Contract for pooled Timed owners: a record handed to ScheduleEvent is
// owned by the engine until Fn runs; it must not be re-scheduled or
// recycled before then unless Fn tolerates concurrent pending instances.
type Timed struct {
	// Fn is the callback run when the event fires. It must be non-nil at
	// ScheduleEvent time and should be bound once, at construction.
	Fn func()
}

// NewTimed returns a Timed bound to fn.
func NewTimed(fn func()) *Timed { return &Timed{Fn: fn} }

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
	e.schedule(delay, fn)
}

// ScheduleAt runs fn at absolute time t. Scheduling in the past panics:
// it would silently reorder causality.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) in the past (now=%d)", t, e.now))
	}
	e.Schedule(t-e.now, fn)
}

// ScheduleEvent runs t.Fn after delay ticks, with the same ordering
// semantics as Schedule. It allocates nothing: the callback was bound
// when t was constructed.
func (e *Engine) ScheduleEvent(delay Time, t *Timed) {
	if t == nil || t.Fn == nil {
		panic("sim: ScheduleEvent with nil Timed/Fn")
	}
	e.schedule(delay, t.Fn)
}

// ScheduleEventAt runs t.Fn at absolute time at (panics when at is in
// the past, like ScheduleAt), allocation-free like ScheduleEvent.
func (e *Engine) ScheduleEventAt(at Time, t *Timed) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleEventAt(%d) in the past (now=%d)", at, e.now))
	}
	e.ScheduleEvent(at-e.now, t)
}

// schedule queues fn for now+delay: on its tick's bucket when that lies
// inside the window, else on the far heap.
func (e *Engine) schedule(delay Time, fn func()) {
	if delay >= horizon {
		e.farSeq++
		e.far.push(event{at: e.now + delay, seq: e.farSeq, fn: fn})
		return
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
	e.nodes[i] = node{fn: fn}
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
		ev := e.far.pop()
		e.schedule(ev.at-t, ev.fn)
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
		fn := n.fn
		if b.head = n.next; b.head == 0 {
			e.occ[slot>>6] &^= 1 << (slot & 63)
		}
		// Release the slot: a freed node must not keep fn, and what fn
		// captured, reachable for the rest of the run.
		*n = node{next: e.free}
		e.free = i
		e.inWheel--
		e.Executed++
		fn()
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

// Ticker invokes fn every period ticks until cancel is called.
// It is used for watchdogs and rate-limiter refills.
func (e *Engine) Ticker(period Time, fn func()) (cancel func()) {
	if period == 0 {
		panic("sim: Ticker with zero period")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			e.Schedule(period, tick)
		}
	}
	e.Schedule(period, tick)
	return func() { stopped = true }
}
