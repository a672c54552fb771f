// Package network provides the interconnect model: point-to-point
// channels between protocol agents with configurable latency, optional
// FIFO ordering, and per-channel traffic accounting.
//
// The paper requires the network between Crossing Guard and the
// accelerator to be ordered, while host and accelerator internals may use
// unordered networks; both are supported per channel. Buffering is
// unbounded, so protocol-level deadlock shows up as a quiesced engine with
// outstanding transactions (caught by harness watchdogs) rather than as
// network backpressure.
//
// # Hot-path design
//
// Send/deliver is the single most executed path in the simulator, so it
// is allocation-free in steady state: deliveries ride pooled delivRec
// records through sim.Engine.ScheduleEventAt instead of a fresh closure
// per message, Send finds its channel in an open-addressed table keyed by
// the full-width (src, dst) pair instead of a map, per-channel traffic
// accounting scans a short list of the types the channel has carried
// instead of maps, and trace events are only constructed when the bus is
// Active. SendAfter gives the protocol layers the same discipline for
// "send this after N ticks" and CallAfter for "handle this message after
// N ticks": pooled sendRec and callRec records replace the per-call
// closures. Each record is the sim.Event the engine queues, so it is one
// heap object, made once per machine up to the most of its kind ever in
// flight at once. The messages themselves, and the blocks cache lines
// hold, come from the coherence.Pool the fabric embeds and go back to it
// when their Recv returns (coherence.Msg states the lifetime rule).
// TestFabricSendAllocFree and BenchmarkFabricSend pin the 0 allocs/op
// budget; see ARCHITECTURE.md "Hot path & allocation discipline".
package network

import (
	"fmt"
	"math/bits"
	"math/rand"

	"crossingguard/internal/coherence"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// Config describes one directed channel.
type Config struct {
	// Latency is the fixed delivery delay in ticks.
	Latency sim.Time
	// Jitter adds a uniformly random extra delay in [0, Jitter]; with
	// Ordered set, jitter perturbs arrival but never reorders.
	Jitter sim.Time
	// Ordered forces FIFO delivery (required accel<->XG, paper §2.1).
	Ordered bool
}

type chanKey struct{ src, dst coherence.NodeID }

// Stats is a point-in-time copy of the traffic counters for one directed
// channel, as returned by StatsFor/VisitStats. The per-type maps are
// materialized on demand from the channel's internal per-type list (the
// hot path never touches a map); they are never nil-checked by readers
// because indexing a nil map yields zero, matching an unused channel.
type Stats struct {
	// Msgs and Bytes count all traffic on the channel.
	Msgs, Bytes uint64
	// MsgsByType counts messages per message type (types with no traffic
	// are absent).
	MsgsByType map[coherence.MsgType]uint64
	// BytesByType counts bytes per message type (types with no traffic
	// are absent).
	BytesByType map[coherence.MsgType]uint64
}

type channel struct {
	key chanKey
	cfg Config
	// dst is the receiving controller: a channel exists only towards a
	// registered node, so finding the channel is finding the receiver. It
	// is nil from the fabric's Reset to the channel's first send after it,
	// which opens it again from scratch.
	dst         coherence.Controller
	lastArrival sim.Time
	inflight    int // messages sent but not yet delivered on this channel

	// Traffic accounting. A channel carries a handful of message types —
	// a protocol pair's few, never the whole vocabulary — so the per-type
	// counts are a list in first-seen order, scanned on each send: the
	// first four in place (a slot is taken once its msgs is nonzero), the
	// rest, which few channels but a fuzzer's have, in more.
	msgs, bytes uint64
	first       [4]typeCount
	more        []typeCount
}

// typeCount is one message type's traffic on one channel.
type typeCount struct {
	t           coherence.MsgType
	msgs, bytes uint64
}

// countFor returns t's counts on the channel, taking the next free slot
// on its first message.
func (ch *channel) countFor(t coherence.MsgType) *typeCount {
	for i := range ch.first {
		c := &ch.first[i]
		if c.msgs == 0 {
			c.t = t
		}
		if c.t == t {
			return c
		}
	}
	for i := range ch.more {
		if ch.more[i].t == t {
			return &ch.more[i]
		}
	}
	ch.more = append(ch.more, typeCount{t: t})
	return &ch.more[len(ch.more)-1]
}

// account records one logical send. Types outside the defined value space
// (a fuzzer forging an undefined MsgType) are clamped into the MsgInvalid
// bucket rather than crashing the accounting.
func (ch *channel) account(m *coherence.Msg) {
	t := m.Type
	if t < 0 || int(t) >= coherence.NumMsgTypes {
		t = coherence.MsgInvalid
	}
	b := uint64(m.Bytes())
	ch.msgs++
	ch.bytes += b
	c := ch.countFor(t)
	c.msgs++
	c.bytes += b
}

// snapshot materializes the externally visible Stats copy.
func (ch *channel) snapshot() Stats {
	s := Stats{Msgs: ch.msgs, Bytes: ch.bytes,
		MsgsByType: make(map[coherence.MsgType]uint64), BytesByType: make(map[coherence.MsgType]uint64)}
	for _, list := range [...][]typeCount{ch.first[:], ch.more} {
		for _, c := range list {
			if c.msgs > 0 {
				s.MsgsByType[c.t] = c.msgs
				s.BytesByType[c.t] = c.bytes
			}
		}
	}
	return s
}

// Delivery describes one scheduled arrival of an intercepted message. An
// Interceptor turns a single Send into zero (drop), one, or several
// deliveries, each possibly perturbed.
type Delivery struct {
	// Msg is the message to deliver — the original, or a corrupted copy
	// (one pointer may be delivered twice, so corruption must copy: a
	// by-value copy, which the pool never takes for one of its own). The
	// fabric takes the original out of the pool unless it is delivered
	// exactly once, as itself.
	Msg *coherence.Msg
	// ExtraDelay is added to the channel's configured latency.
	ExtraDelay sim.Time
	// Unordered exempts this delivery from the FIFO clamp on ordered
	// channels, letting it overtake earlier traffic (reorder injection).
	// An unordered arrival does not advance the channel's FIFO horizon.
	Unordered bool
}

// Interceptor perturbs channel traffic for fault injection. Intercept is
// consulted once per Send, before delivery is scheduled; returning
// handled=false leaves the message on the normal path. With handled=true
// the fabric schedules exactly the returned deliveries — an empty slice
// drops the message. The slice is a loan: Send has consumed it when it
// returns, so the interceptor may hand out the same storage every time.
// Interceptors must be deterministic (seeded RNG, no wall clock): a fabric
// with the same interceptor state replays the same schedule.
type Interceptor interface {
	Intercept(now sim.Time, m *coherence.Msg) (deliveries []Delivery, handled bool)
}

// delivRec is one pooled in-flight delivery: the closure-free replacement
// for the per-message func() the fabric used to hand the engine. The record
// is the sim.Event the engine queues, so it is the delivery's only object,
// allocated once; afterwards it cycles through the fabric's free list, so
// steady-state delivery costs zero allocations. A record belongs to the
// engine from ScheduleEventAt until Fire, which releases it (fields cleared
// — no message is pinned by the pool) before invoking the receiver, so a
// Recv that immediately Sends reuses the same record.
type delivRec struct {
	fab  *Fabric
	ch   *channel
	m    *coherence.Msg
	next *delivRec // free-list link, nil while in flight
}

// Fire is the arrival: pool release, accounting, trace, Recv — and, when
// Recv returns, the message back to its pool unless kept.
func (r *delivRec) Fire() {
	f := r.fab
	ch, m := r.ch, r.m
	dst := ch.dst
	r.ch, r.m = nil, nil
	r.next = f.freeRec
	f.freeRec = r

	ch.inflight--
	f.mInflight.Add(-1)
	if b := f.Bus; b.Active() {
		b.Emit(obs.MsgEvent(f.eng.Now(), obs.KindRecv, dst.Name(), m))
	}
	f.BeginRecv(m)
	dst.Recv(m)
	f.EndRecv(m)
}

// sendRec is one pooled delayed send (SendAfter): the closure-free
// replacement for eng.Schedule(d, func() { fab.Send(m) }). It follows the
// delivRec protocol — its own Event, engine-owned until it fires, released
// (fields cleared) before Send so a nested SendAfter reuses it.
type sendRec struct {
	fab  *Fabric
	m    *coherence.Msg
	fill func(*coherence.Msg)
	next *sendRec // free-list link, nil while scheduled
}

// Fire fills and sends the message.
func (r *sendRec) Fire() {
	f, m, fill := r.fab, r.m, r.fill
	r.m, r.fill = nil, nil
	r.next = f.freeSend
	f.freeSend = r
	f.delayed--
	if fill != nil {
		fill(m)
	}
	f.Send(m)
}

// callRec is one pooled deferred handler call (CallAfter): the
// closure-free replacement for eng.Schedule(d, func() { h(m) }), following
// the sendRec protocol. The message rides the record kept; when the event
// fires it is handled like a delivery — the handler's until it returns,
// then back to the pool unless the handler kept it again.
type callRec struct {
	fab  *Fabric
	m    *coherence.Msg
	h    func(*coherence.Msg)
	next *callRec // free-list link, nil while scheduled
}

// Fire hands the message to the handler.
func (r *callRec) Fire() {
	f, m, h := r.fab, r.m, r.h
	r.m, r.h = nil, nil
	r.next = f.freeCall
	f.freeCall = r
	f.delayed--
	f.BeginRecv(m)
	h(m)
	f.EndRecv(m)
}

// Fabric routes messages between registered controllers.
type Fabric struct {
	// Pool is the machine's free lists of messages and line blocks:
	// fab.Msg(coherence.Msg{…}) at every construction site, fab.CopyBlock
	// and fab.FreeBlock for line storage.
	coherence.Pool

	eng      *sim.Engine
	rng      *rand.Rand
	nodes    map[coherence.NodeID]coherence.Controller
	chans    chanTable
	defaults Config
	routes   map[chanKey]Config
	// wiring records every Register and SetRoute since the first Mark, for
	// Forget; nil before it.
	wiring *wiringLog

	// freeRec heads the delivery-record pool. Records are pushed back in
	// Fire before Recv executes, so a simulation's pool size converges to
	// its peak in-flight message count and then stops allocating.
	freeRec *delivRec

	// freeSend and freeCall head the delayed-send and deferred-call pools;
	// delayed counts records of both kinds handed to the engine and not
	// yet fired (zero at quiesce).
	freeSend *sendRec
	freeCall *callRec
	delayed  int

	// Bus, when non-nil, receives a structured trace event for every
	// send, delivery, and drop (obs.KindSend/KindRecv/KindDrop) — the
	// typed replacement for the old printf trace ring, used by
	// cmd/xgtrace and the campaign runner's failure artifacts. It is the
	// system-wide trace bus: other components (the guard) also emit
	// through it, since every component already holds the fabric.
	// Emission sites gate on Bus.Active, so a bus nobody listens to
	// costs nothing on the hot path.
	Bus *obs.Bus

	// Dropped counts sends to unregistered destinations (possible only
	// when a fuzzing accelerator invents node IDs); they are counted and
	// discarded rather than crashing the host, mirroring how real
	// hardware ignores mis-routed packets.
	Dropped uint64

	// interceptor, when non-nil, sees every Send and may drop, duplicate,
	// delay, corrupt, or reorder it (the fault-injection hook).
	interceptor Interceptor

	// Metrics instruments (nil-safe no-ops without AttachObs): message
	// and byte totals, drops, current/peak in-flight messages, and the
	// per-send channel-depth distribution — the queue-occupancy view of
	// the unbounded-buffer interconnect.
	mMsgs, mBytes, mDropped *obs.Counter
	mInflight               *obs.Gauge
	mDepth                  *obs.Histogram
}

// NewFabric returns a fabric using eng for delivery scheduling and seed
// for latency jitter.
func NewFabric(eng *sim.Engine, seed int64, defaults Config) *Fabric {
	return &Fabric{
		eng:      eng,
		rng:      eng.Rand(seed),
		nodes:    make(map[coherence.NodeID]coherence.Controller),
		defaults: defaults,
		routes:   make(map[chanKey]Config),
	}
}

// AttachObs registers the fabric's instruments with r: counters
// net.msgs / net.bytes / net.dropped, the net.inflight occupancy gauge
// (with high-water mark), and the net.channel.depth histogram of the
// destination channel's queue depth observed at each send. Call before
// traffic starts; a nil registry leaves the fabric uninstrumented.
func (f *Fabric) AttachObs(r *obs.Registry) {
	f.mMsgs = r.Counter("net.msgs")
	f.mBytes = r.Counter("net.bytes")
	f.mDropped = r.Counter("net.dropped")
	f.mInflight = r.Gauge("net.inflight")
	f.mDepth = r.Histogram("net.channel.depth")
}

// Register adds a controller as a message endpoint. Registering two
// controllers with one ID is a wiring bug and panics.
func (f *Fabric) Register(c coherence.Controller) {
	if _, dup := f.nodes[c.ID()]; dup {
		panic(fmt.Sprintf("network: duplicate node %d (%s)", c.ID(), c.Name()))
	}
	f.nodes[c.ID()] = c
	if w := f.wiring; w != nil {
		w.nodes = append(w.nodes, c.ID())
	}
}

// Node returns the controller registered under id, or nil.
func (f *Fabric) Node(id coherence.NodeID) coherence.Controller { return f.nodes[id] }

// Engine returns the engine the fabric schedules deliveries on.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// CheckLifetimes turns the lifetime check on for the machine: the pool's
// (released messages and blocks poisoned, never reused) and the engine's
// (closing the machine recycles nothing). Call before traffic starts.
func (f *Fabric) CheckLifetimes() {
	f.Pool.CheckLifetimes()
	f.eng.CheckLifetimes()
}

// SetRoute overrides the channel configuration for src->dst.
func (f *Fabric) SetRoute(src, dst coherence.NodeID, cfg Config) {
	k := chanKey{src, dst}
	if w := f.wiring; w != nil {
		prev, had := f.routes[k]
		w.routes = append(w.routes, routeChange{k, prev, had})
	}
	f.routes[k] = cfg
}

// SetRoutePair overrides both directions between a and b.
func (f *Fabric) SetRoutePair(a, b coherence.NodeID, cfg Config) {
	f.SetRoute(a, b, cfg)
	f.SetRoute(b, a, cfg)
}

// Route returns the channel configuration for src->dst: its override, or
// the fabric's defaults.
func (f *Fabric) Route(src, dst coherence.NodeID) Config {
	if cfg, ok := f.routes[chanKey{src, dst}]; ok {
		return cfg
	}
	return f.defaults
}

// open creates the channel k on its first send, or returns nil when
// k.dst is not registered: no channel is kept for an unknown node, so one
// registered later is found by the next send to it. old is the channel a
// run before the last Reset left at k, if any: it opens again in place,
// as a fresh channel would, towards whatever is registered at k.dst now.
func (f *Fabric) open(k chanKey, old *channel) *channel {
	dst, ok := f.nodes[k.dst]
	if !ok {
		return nil
	}
	if old == nil {
		ch := &channel{key: k, cfg: f.Route(k.src, k.dst), dst: dst}
		f.chans.add(ch)
		return ch
	}
	*old = channel{key: k, cfg: f.Route(k.src, k.dst), dst: dst, more: old.more[:0]}
	f.chans.opened = append(f.chans.opened, old)
	return old
}

// Reset returns the fabric to its just-built state for a machine's next
// run, keeping its routes, its registered nodes and its storage: the
// pool takes back every message and block, every channel closes (it
// opens again on its next send), the jitter stream is drawn again from
// the engine, which must have been reset first, and the trace bus and the
// interceptor come off.
func (f *Fabric) Reset(seed int64) {
	f.Pool.Reset()
	f.rng = f.eng.Rand(seed)
	f.chans.reset()
	f.delayed, f.Dropped = 0, 0
	f.Bus, f.interceptor = nil, nil
}

// Mark is a point in the fabric's wiring history, for Forget.
type Mark struct{ nodes, routes int }

// wiringLog is the fabric's wiring history.
type wiringLog struct {
	nodes  []coherence.NodeID
	routes []routeChange
}

// routeChange is one SetRoute, with the route it replaced.
type routeChange struct {
	k    chanKey
	prev Config
	had  bool
}

// Mark returns the fabric's wiring as it stands. From the first Mark on,
// the fabric records its wiring for Forget.
func (f *Fabric) Mark() Mark {
	if f.wiring == nil {
		f.wiring = &wiringLog{}
	}
	return Mark{len(f.wiring.nodes), len(f.wiring.routes)}
}

// Forget undoes the wiring done since m: the nodes registered since are
// unregistered and the routes set since are restored. A machine's reset
// clears its custom accelerators' wiring this way before building them
// afresh.
func (f *Fabric) Forget(m Mark) {
	w := f.wiring
	for i := len(w.routes) - 1; i >= m.routes; i-- {
		c := w.routes[i]
		if c.had {
			f.routes[c.k] = c.prev
		} else {
			delete(f.routes, c.k)
		}
	}
	for _, id := range w.nodes[m.nodes:] {
		delete(f.nodes, id)
	}
	w.nodes, w.routes = w.nodes[:m.nodes], w.routes[:m.routes]
}

// SetInterceptor installs (or, with nil, removes) the fault-injection
// hook. Install before traffic starts; swapping interceptors mid-flight
// only affects messages not yet sent.
func (f *Fabric) SetInterceptor(i Interceptor) { f.interceptor = i }

// Send delivers m to m.Dst after the channel's latency. The message is
// the fabric's from here and the receiver's on arrival: the sender must
// not touch it again. An installed Interceptor may replace the
// single delivery with any set of perturbed deliveries (or none); channel
// traffic stats always count the logical send once, while in-flight
// accounting and recv events track the actual deliveries.
func (f *Fabric) Send(m *coherence.Msg) {
	k := chanKey{m.Src, m.Dst}
	ch := f.chans.get(k)
	if ch == nil || ch.dst == nil {
		if ch = f.open(k, ch); ch == nil {
			f.Dropped++
			f.mDropped.Inc()
			if b := f.Bus; b.Active() {
				b.Emit(obs.MsgEvent(f.eng.Now(), obs.KindDrop, "net", m))
			}
			f.Release(m)
			return
		}
	}
	ch.account(m)
	f.mMsgs.Inc()
	f.mBytes.Add(uint64(m.Bytes()))

	if f.interceptor != nil {
		if dels, handled := f.interceptor.Intercept(f.eng.Now(), m); handled {
			// Delayed or reordered only, the message is still delivered
			// once as itself and goes back to the pool from there; dropped,
			// it goes back now. Delivered twice, or standing beside a
			// corrupted copy of itself, it goes back at the pool's Reset.
			switch {
			case len(dels) == 0:
				f.Release(m)
			case len(dels) > 1 || dels[0].Msg != m:
				f.Disown(m)
			}
			for i := range dels {
				f.deliver(ch, dels[i])
			}
			return
		}
	}
	f.deliver(ch, Delivery{Msg: m})
}

// deliver schedules one arrival on ch; d carries the (possibly perturbed)
// message and its fault adjustments. The arrival rides a pooled delivRec
// instead of a closure, so the steady-state cost is the engine's push only.
func (f *Fabric) deliver(ch *channel, d Delivery) {
	m := d.Msg
	ch.inflight++
	f.mInflight.Add(1)
	f.mDepth.Observe(float64(ch.inflight))

	delay := ch.cfg.Latency + d.ExtraDelay
	if ch.cfg.Jitter > 0 {
		delay += sim.Time(f.rng.Int63n(int64(ch.cfg.Jitter) + 1))
	}
	arrival := f.eng.Now() + delay
	if ch.cfg.Ordered && !d.Unordered {
		if arrival < ch.lastArrival {
			arrival = ch.lastArrival
		}
		ch.lastArrival = arrival
	}
	if b := f.Bus; b.Active() {
		b.Emit(obs.MsgEvent(f.eng.Now(), obs.KindSend, "net", m))
	}

	r := f.freeRec
	if r != nil {
		f.freeRec = r.next
		r.next = nil
	} else {
		r = &delivRec{fab: f} // the pool's one allocation
	}
	r.ch, r.m = ch, m
	f.eng.ScheduleEventAt(arrival, r)
}

// SendAfter sends m after delay ticks of sender-side latency: one engine
// event at (now+delay, scheduling order) that calls Send, exactly what
// eng.Schedule(delay, func() { f.Send(m) }) does, without the closure. A
// non-nil fill runs on m when the event fires, just before Send, for the
// fields that must be read then and not now (the guard epoch, a memory
// read); pass a func bound once, or it allocates like the closure did.
func (f *Fabric) SendAfter(delay sim.Time, m *coherence.Msg, fill func(*coherence.Msg)) {
	r := f.freeSend
	if r != nil {
		f.freeSend = r.next
		r.next = nil
	} else {
		r = &sendRec{fab: f}
	}
	r.m, r.fill = m, fill
	f.delayed++
	f.eng.ScheduleEvent(delay, r)
}

// CallAfter runs h(m) after delay ticks: one engine event at (now+delay,
// scheduling order), exactly what eng.Schedule(delay, func() { h(m) })
// does, without the closure — pass a method value bound once. m counts as
// kept while it waits; when the event fires, m is h's like a delivered
// message is its receiver's, and goes back to the pool when h returns
// unless h keeps it.
func (f *Fabric) CallAfter(delay sim.Time, h func(*coherence.Msg), m *coherence.Msg) {
	r := f.freeCall
	if r != nil {
		f.freeCall = r.next
		r.next = nil
	} else {
		r = &callRec{fab: f}
	}
	m.Keep()
	r.m, r.h = m, h
	f.delayed++
	f.eng.ScheduleEvent(delay, r)
}

// DelayedSends reports SendAfter messages and CallAfter handlers still
// waiting for their tick.
func (f *Fabric) DelayedSends() int { return f.delayed }

// StatsFor returns traffic counters for the directed channel src->dst
// (zero-valued if unused).
func (f *Fabric) StatsFor(src, dst coherence.NodeID) Stats {
	if ch := f.chans.get(chanKey{src, dst}); ch != nil && ch.dst != nil {
		return ch.snapshot()
	}
	return Stats{}
}

// VisitStats calls fn for every directed channel with traffic, in the
// order the channels were opened (their first sends), so two identical
// runs visit in the same order. The Stats pointee is a per-call snapshot
// the visitor may keep or mutate freely.
func (f *Fabric) VisitStats(fn func(src, dst coherence.NodeID, s *Stats)) {
	for _, ch := range f.chans.opened {
		if ch.msgs > 0 {
			s := ch.snapshot()
			fn(ch.key.src, ch.key.dst, &s)
		}
	}
}

// TotalBytes sums traffic over all channels matching the filter (nil
// filter matches everything).
func (f *Fabric) TotalBytes(filter func(src, dst coherence.NodeID) bool) uint64 {
	var n uint64
	for _, ch := range f.chans.opened {
		if ch.msgs > 0 && (filter == nil || filter(ch.key.src, ch.key.dst)) {
			n += ch.bytes
		}
	}
	return n
}

// chanTable finds a channel by its (src, dst) pair for every Send: open
// addressing with linear probing over a power-of-two slot array kept at
// most half full, indexed by the top bits of a multiplicative hash of the
// full-width pair. Channels are never closed, so there is no deletion and
// no tombstone. n counts the channels in the table; opened lists the ones
// open since the last reset, in the order they were opened, which the
// stats walks follow.
type chanTable struct {
	slots  []*channel // nil = empty
	shift  uint       // 64 - log2(len(slots))
	n      int
	opened []*channel
}

// reset closes every channel, keeping it in the table for its key's next
// send to open again.
func (t *chanTable) reset() {
	for _, ch := range t.opened {
		ch.dst = nil
	}
	clear(t.opened)
	t.opened = t.opened[:0]
}

// minChanSlots is the table's first size: a single-device machine opens
// a few dozen channels, so it grows about three times.
const minChanSlots = 16

// slot is k's home slot. Both ids enter the hash at full width: two pairs
// that differ in any bit of either id are different keys.
func (t *chanTable) slot(k chanKey) uint64 {
	h := uint64(k.src)*0x9e3779b97f4a7c15 ^ uint64(k.dst)
	return h * 0xbf58476d1ce4e5b9 >> t.shift
}

// get returns the channel k, or nil when it was never opened; a channel
// the last reset closed is returned closed.
func (t *chanTable) get(k chanKey) *channel {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.slot(k); ; i = (i + 1) & mask {
		if ch := t.slots[i]; ch == nil || ch.key == k {
			return ch
		}
	}
}

// add enters ch, whose key is not in the table, growing the slots first
// if ch would fill more than half of them.
func (t *chanTable) add(ch *channel) {
	t.opened = append(t.opened, ch)
	if t.n++; 2*t.n > len(t.slots) {
		old := t.slots
		n := max(2*len(old), minChanSlots)
		t.slots = make([]*channel, n)
		t.shift = uint(64 - bits.TrailingZeros(uint(n)))
		for _, c := range old {
			if c != nil {
				t.place(c)
			}
		}
	}
	t.place(ch)
}

// place puts ch in the first empty slot from its home slot on.
func (t *chanTable) place(ch *channel) {
	mask := uint64(len(t.slots) - 1)
	i := t.slot(ch.key)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = ch
}
