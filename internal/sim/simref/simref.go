// Package simref is a frozen copy of the pre-PR4 simulation kernel: a
// container/heap priority queue with interface-boxed events. It exists
// for differential testing only: internal/sim drives this engine and the
// production engine with identical randomized schedules and asserts
// identical execution order (including same-tick FIFO ties), so a rewrite
// of the production queue can never silently change determinism.
//
// Production code must not import this package; it intentionally keeps
// the old kernel's costs (and its popped-slot retention bug) unfixed.
package simref

import (
	"container/heap"
	"fmt"

	"crossingguard/internal/sim"
)

// event is a scheduled callback, identical to the old internal/sim event.
type event struct {
	at  sim.Time
	seq uint64
	fn  func()
}

// eventHeap implements heap.Interface ordered by (at, seq), exactly as
// the pre-PR4 kernel did: every Push boxes an event into interface{} and
// every Pop boxes one back out.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event   { return h[0] }

// Engine is the frozen reference scheduler. It mirrors the subset of the
// production sim.Engine API the differential tests and benchmarks drive.
type Engine struct {
	now     sim.Time
	seq     uint64
	pq      eventHeap
	stopped bool

	// Executed counts events run, like sim.Engine.Executed.
	Executed uint64
}

// NewEngine returns a fresh reference engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() sim.Time { return e.now }

// Schedule runs fn after delay ticks with the old kernel's semantics
// (identical to the production kernel's by construction).
func (e *Engine) Schedule(delay sim.Time, fn func()) { e.ScheduleID(delay, fn) }

// ScheduleID is Schedule returning the event's id, for Cancel.
func (e *Engine) ScheduleID(delay sim.Time, fn func()) uint64 {
	if fn == nil {
		panic("simref: Schedule with nil fn")
	}
	e.seq++
	heap.Push(&e.pq, event{at: e.now + delay, seq: e.seq, fn: fn})
	return e.seq
}

// Cancel is the reference for the production kernel's Timer cancel, done
// the naive way: scan the whole queue for the event and take it out. It
// reports whether the event was still queued.
func (e *Engine) Cancel(id uint64) bool {
	for i := range e.pq {
		if e.pq[i].seq == id {
			heap.Remove(&e.pq, i)
			return true
		}
	}
	return false
}

// ScheduleAt runs fn at absolute time t; scheduling in the past panics.
func (e *Engine) ScheduleAt(t sim.Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("simref: ScheduleAt(%d) in the past (now=%d)", t, e.now))
	}
	e.Schedule(t-e.now, fn)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }

// Stop makes the current run call return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

func (e *Engine) step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(event)
	e.now = ev.at
	e.Executed++
	ev.fn()
	return true
}

// RunUntilQuiet executes events until the queue drains or Stop is called.
func (e *Engine) RunUntilQuiet() sim.Time {
	e.stopped = false
	for !e.stopped && e.step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline and reports
// whether the queue drained.
func (e *Engine) RunUntil(deadline sim.Time) bool {
	e.stopped = false
	for !e.stopped {
		if len(e.pq) == 0 {
			return true
		}
		if e.pq.peek().at > deadline {
			e.now = deadline
			return false
		}
		e.step()
	}
	return len(e.pq) == 0
}
