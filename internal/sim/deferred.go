package sim

// Deferred is the deferred actions of one kind that one component has
// pending: "run this with payload p after N ticks", allocation-free. Each
// pending action rides a record holding its payload; the record is the
// Event the engine queues, so it is the action's one object, and a fired
// record goes back to the list's free list, so a component's steady state
// allocates nothing however many actions it defers.
// The guard's dispatch and rate-limit timers and the adversary's delayed
// replies are each one Deferred.
//
// A record is the engine's from After until its tick: a Deferred has no
// cancel, because its actions are short-dated (a few ticks of latency) and an
// overtaken one costs an event that was due anyway. An owner whose action may
// be overtaken puts in the payload what tells it so (the guard's serial) and
// lets the action fire inert; an action that waits long enough for that to
// matter belongs on a Lane. The record is cleared and given back before run is
// called, so run may defer again — it takes the record it just left — and a
// payload pins nothing once it has run.
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
// allocation.
func (d *Deferred[P]) rec(p P) *deferredRec[P] {
	r := d.free
	if r != nil {
		d.free = r.next
		r.next = nil
	} else {
		r = &deferredRec[P]{list: d}
	}
	r.p = p
	return r
}

// Fire gives the record back and runs the action with its payload.
func (r *deferredRec[P]) Fire() {
	d, p := r.list, r.p
	var zero P
	r.p = zero
	r.next = d.free
	d.free = r
	d.run(p)
}

// Lane is the deferred actions of one kind that usually do not happen: every
// one waits the same long delay, and its owner calls most of them off long
// before — the guard's Guarantee 2c deadlines, 100 000 ticks each, on recalls
// that close in a couple of hundred. Defer hands back the armed action and its
// Cancel takes it out of the engine's queue (Timer), so what a lane holds, and
// what it keeps queued, is what is armed now: a called-off action does not
// fire, does not count as pending and does not hold the clock open.
//
// Like a Deferred's, an action is one record — payload and Timer together,
// the record its Timer's Event — and it goes back to the free list before
// run is called, or when it is cancelled, so a lane allocates nothing once
// it has as many records as were ever armed at once. Bind before first use; a
// Lane must not be copied after that.
type Lane[P any] struct {
	eng   *Engine
	run   func(P)
	delay Time
	free  *Armed[P]
	n     int
}

// Armed is one action waiting on a Lane. It is its owner's to Cancel until
// the action runs; after either, the record belongs to the lane again and
// the pointer must be dropped.
type Armed[P any] struct {
	p    P
	t    Timer
	lane *Lane[P]
	next *Armed[P] // free-list link
}

// Bind sets the engine, the delay every action of the lane waits and the
// function every one of them runs.
func (l *Lane[P]) Bind(eng *Engine, delay Time, run func(P)) {
	l.eng, l.delay, l.run = eng, delay, run
}

// Defer runs run(p) after the lane's delay, at the queue position
// eng.Schedule(delay, …) would give it, unless the action is cancelled first.
func (l *Lane[P]) Defer(p P) *Armed[P] {
	a := l.free
	if a != nil {
		l.free = a.next
		a.next = nil
	} else {
		a = &Armed[P]{lane: l}
		a.t.ev = (*armedEv[P])(a)
	}
	a.p = p
	l.n++
	l.eng.ScheduleTimer(l.delay, &a.t)
	return a
}

// Cancel calls the action off and returns its payload, so that the owner can
// check it took back what it meant to. Cancelling an action that is not armed
// — it ran, or was already cancelled — panics: by now the record may be armed
// again for someone else.
func (a *Armed[P]) Cancel() P {
	l := a.lane
	if !l.eng.Cancel(&a.t) {
		panic("sim: Cancel of a lane action that is not armed")
	}
	return l.release(a)
}

// Len reports how many actions are armed.
func (l *Lane[P]) Len() int { return l.n }

// Reset forgets the armed actions after their engine's Reset dropped them:
// their records are left to the collector, and the lane arms afresh.
func (l *Lane[P]) Reset() { l.n = 0 }

func (l *Lane[P]) release(a *Armed[P]) P {
	p := a.p
	var zero P
	a.p = zero
	a.next = l.free
	l.free = a
	l.n--
	return p
}

// armedEv is an Armed as its Timer's Event. Only the engine fires it, when
// the lane's delay is up: an Armed offers its owner Cancel, never Fire.
type armedEv[P any] Armed[P]

// Fire gives the record back and runs the action with its payload.
func (a *armedEv[P]) Fire() {
	l := a.lane
	l.run(l.release((*Armed[P])(a)))
}
