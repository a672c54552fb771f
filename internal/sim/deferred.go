package sim

// Deferred is the deferred actions of one kind that one component has
// pending: "run this with payload p after N ticks", allocation-free. It is
// the record-with-payload form of Timed. Each pending action rides a record
// holding its payload and a Timed whose callback was bound when the record
// was made; a fired record goes back to the list's free list, so a
// component's steady state allocates nothing however many actions it defers.
// The guard's dispatch and rate-limit timers and the adversary's delayed
// replies are each one Deferred.
//
// A record is the engine's from After until its tick; there is no cancel.
// An owner whose action may be overtaken puts in the payload what tells it so
// (the guard's serial) and lets the action fire inert. The record is cleared
// and given back before run is called, so run may defer again — it takes the
// record it just left — and a payload pins nothing once it has run.
//
// Bind before first use. A Deferred must not be copied after that: its
// records point back at it.
type Deferred[P any] struct {
	eng  *Engine
	run  func(P)
	free *deferredRec[P]
}

type deferredRec[P any] struct {
	p    P
	ev   Timed
	list *Deferred[P]
	next *deferredRec[P] // free-list link
}

// Bind sets the engine the actions are scheduled on and the function every
// one of them runs: pass a method value, it is stored once.
func (d *Deferred[P]) Bind(eng *Engine, run func(P)) { d.eng, d.run = eng, run }

// After runs run(p) after delay ticks, at the queue position
// eng.Schedule(delay, …) would give it.
func (d *Deferred[P]) After(delay Time, p P) {
	d.eng.ScheduleEvent(delay, d.rec(p))
}

// rec takes a record off the free list, or makes one — the list's only
// allocation: the record and its bound callback.
func (d *Deferred[P]) rec(p P) *Timed {
	r := d.free
	if r != nil {
		d.free = r.next
		r.next = nil
	} else {
		r = &deferredRec[P]{list: d}
		r.ev.Fn = r.fire
	}
	r.p = p
	return &r.ev
}

func (r *deferredRec[P]) fire() {
	d, p := r.list, r.p
	var zero P
	r.p = zero
	r.next = d.free
	d.free = r
	d.run(p)
}

// Lane is Deferred for actions that all wait the same number of ticks, and
// so run in the order they were deferred: the payloads wait in one ring and
// every event is the same Timed taking the ring's head. A pending action
// costs a ring slot, not a record, which is what a long delay needs — a
// record is only reused once it has fired, and the guard's 100 000-tick
// watchdogs are armed by the hundred before the first one does.
//
// Like a Deferred it has no cancel, is bound before first use and must not
// move afterwards.
type Lane[P any] struct {
	eng   *Engine
	run   func(P)
	delay Time
	ev    Timed
	// ring holds the n pending payloads from head on, wrapping; its length
	// is zero or a power of two.
	ring    []P
	head, n int
}

// Bind sets the engine, the delay every action of the lane waits and the
// function every one of them runs.
func (l *Lane[P]) Bind(eng *Engine, delay Time, run func(P)) {
	l.eng, l.delay, l.run = eng, delay, run
	l.ev.Fn = l.fire
}

// Defer runs run(p) after the lane's delay, at the queue position
// eng.Schedule(delay, …) would give it.
func (l *Lane[P]) Defer(p P) {
	if l.n == len(l.ring) {
		grown := make([]P, max(8, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = grown, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = p
	l.n++
	l.eng.ScheduleEvent(l.delay, &l.ev)
}

func (l *Lane[P]) fire() {
	p := l.ring[l.head]
	var zero P
	l.ring[l.head] = zero
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	l.run(p)
}
