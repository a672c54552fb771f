// Package core implements Crossing Guard (XG), the paper's contribution:
// trusted host hardware that (1) exposes the small standardized coherence
// interface of §2.1 to an accelerator, (2) translates it to the host
// protocol (Hammer-like MOESI or inclusive MESI, via per-host shims, §3),
// and (3) enforces the safety guarantees of Figure 1 so that a buggy or
// malicious accelerator can never crash, deadlock, or corrupt the host.
//
// Two variants are provided (§2.3): Full State, which tracks the state of
// every block the accelerator holds (a trusted inclusive directory), and
// Transactional, which tracks only open transactions and relies on the
// host-protocol tolerance modifications (hostproto/*.Config.TxnMods).
//
// One host fabric can carry several guards, each fronting its own
// accelerator ("one instance of Crossing Guard per accelerator in the
// system", §2).
package core

import (
	"fmt"
	"strconv"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/perm"
	"crossingguard/internal/sim"
)

// zeroBlock is the block of zeros the guard supplies on a misbehaving
// accelerator's behalf (Guarantees 2a/2c). It is only ever read.
var zeroBlock mem.Block

// Mode selects the Crossing Guard variant.
type Mode int

const (
	// FullState tracks every block held by the accelerator (§2.3.1).
	FullState Mode = iota
	// Transactional tracks only open transactions (§2.3.2).
	Transactional
)

// String returns the variant name used in traces and docs.
func (m Mode) String() string {
	if m == FullState {
		return "FullState"
	}
	return "Transactional"
}

// Grant is the privilege level obtained from the host for a block.
type Grant int

const (
	GrantS Grant = iota // Shared: read permission
	GrantE              // Exclusive: clean write permission
	GrantM              // Modified: dirty write permission
)

// String returns the one-letter grant name.
func (g Grant) String() string { return [...]string{"S", "E", "M"}[g] }

// GetKind classifies host-side get requests.
type GetKind int

const (
	GetShared     GetKind = iota // upgradable shared request
	GetSharedOnly                // non-upgradable (read-only pages, §3.2)
	GetExcl                      // exclusive (write) request
)

// hostShim is the host-protocol-specific half of Crossing Guard. The
// guard core calls down; the shim calls back (finishGet, retirePut,
// startRecall, whose completion comes back down as resume). Shims also
// receive all host-protocol messages. A block passed either way is a loan
// for the call: whoever needs it longer copies it into a record of its own.
//
// The core owns every per-line record — a shim has no table — and with it
// "is this line busy", what is outstanding, and the life of a host
// writeback: its record and block, "already writing back" for a
// guard-initiated one, retiring on the host's ack, completing the
// accelerator's Put, reporting a stray ack. A shim owns what its protocol
// differs in: the message vocabulary, how a get's responses are counted
// and which carries the data, what a writeback's ack asks for (hammer's
// HWBAck wants the data; an HNack or a Fwd_GetM loses it), and how each
// forward, Inv or inclusion recall is answered.
type hostShim interface {
	// get issues a host request for a block, opening the line's host get.
	get(addr mem.Addr, kind GetKind)
	// put sends the first message of the line's host writeback, which the
	// core has opened (dirty=false for PutE); data is the record's block.
	put(addr mem.Addr, data *mem.Block, dirty bool)
	// putS notifies the host of a shared eviction, if the host wants it.
	putS(addr mem.Addr)
	// suppressPutS reports whether this host allows silent S eviction
	// (Crossing Guard then drops PutS, §2.1).
	suppressPutS() bool
	// recv handles a host-protocol message.
	recv(m *coherence.Msg)
	// resume finishes what the shim was doing when it had to recall addr
	// from the accelerator first (startRecall): c is the continuation it
	// left, data the recovered block (nil when the accelerator held none)
	// and viaPut whether a racing Put resolved the recall.
	resume(addr mem.Addr, c recallCont, data *mem.Block, dirty, viaPut bool)
}

// Config parameterizes a Crossing Guard instance.
type Config struct {
	Mode Mode
	// Perms is the Border-Control-style page permission table
	// (Guarantee 0). A nil table allows everything (stress testing).
	Perms *perm.Table
	// Timeout is the Guarantee 2c deadline for accelerator responses to
	// Invalidate; 0 disables the watchdog.
	Timeout sim.Time
	// GuardLat is the processing latency added per crossing message.
	GuardLat sim.Time
	// Rate, when non-nil, bounds accelerator request bandwidth (§2.5).
	Rate *RateLimit
	// DisableAfter disables the accelerator after this many guarantee
	// violations (0 = never disable); disabled accelerators have their
	// requests dropped while the guard keeps answering the host.
	DisableAfter int
	// RecallRetries re-sends Invalidate up to this many times when a
	// recall deadline expires, doubling the deadline each attempt, before
	// the 2c watchdog answers on the accelerator's behalf. 0 keeps the
	// paper's single-shot timeout. Retries tolerate a lossy link to an
	// otherwise correct accelerator (the ECI-style fault model).
	RecallRetries int
	// QuarantineAfter fences the accelerator after this many guarantee
	// violations (0 = never): open recalls resolve from trusted state,
	// the Full State table's lines are reclaimed by the guard, further
	// requests are nacked, and the host keeps running on trusted copies.
	// Unlike DisableAfter's silent drop, quarantine keeps answering so a
	// confused-but-live accelerator observes its fencing.
	QuarantineAfter int
	// RecoverAfter enables quarantine recovery: after this many ticks of
	// backoff, doubled for every earlier readmission, a quarantined device
	// is drained, reset, and reintegrated under a bumped guard epoch; after
	// maxRecoveries readmissions the next quarantine is permanent. 0 (the
	// default) keeps quarantine terminal — today's behavior, byte-for-byte.
	RecoverAfter sim.Time
	// Spans enables causal span tracing: every accepted accelerator
	// crossing, host-initiated recall, and recovery cycle is assigned a
	// stable span id, emits paired span-begin/span-end (+ span-phase)
	// events on the trace bus, stamps the id on its outbound accelerator
	// messages, and feeds the per-phase xg.span.* latency histograms.
	// Off by default: span events interleave with the message trace and
	// add metrics, so golden traces and metric snapshots are only stable
	// with spans off. Pure observability — span tracing never changes
	// simulated timing or message order.
	Spans bool
}

// Guard is one Crossing Guard instance: the trusted boundary between one
// accelerator cache hierarchy and the host coherence protocol.
type Guard struct {
	id    coherence.NodeID
	name  string
	eng   *sim.Engine
	fab   *network.Fabric
	cfg   Config
	sink  coherence.ErrorSink
	accel coherence.NodeID
	shim  hostShim

	// lines is the guard's one table (line.go): everything it knows about
	// a block, keyed by line address. Lines and their open-work records
	// are recycled through the two free lists.
	lines     map[mem.Addr]*line
	freeLines coherence.RecPool[line]
	freeWork  coherence.RecPool[lineWork]

	// serial stamps every opening of a transaction or recall; it only
	// counts up, so no two ever share a value (timer). timers holds the
	// guard's short deferred actions and watchdogs the Guarantee 2c
	// deadlines of the open recalls, one lane per retry attempt: attempt n
	// waits Timeout<<n.
	serial    uint64
	timers    sim.Deferred[timer]
	watchdogs []sim.Lane[deadline]

	// accelTag is the device label stamped on this guard's trace events
	// and per-accelerator metric names (0 for the first/only device, so
	// single-accelerator traces and metric sets are unchanged).
	accelTag int

	// Wait list (waitlist.go): a line's parked requests are on its
	// open-work record; ready lists the lines whose parked requests the
	// armed wake event will re-run; freePark pools the per-request records
	// and parkedNow counts the requests currently held.
	ready     []mem.Addr
	wakeEv    sim.Timed
	wakeArmed bool
	freePark  coherence.RecPool[parkedReq]
	parkedNow int

	// stampEpoch is stamp bound once (Fabric.SendAfter's fill hook).
	stampEpoch func(*coherence.Msg)

	// trusted holds a trusted copy's bytes while a recall completes: the
	// residency the copy belongs to is dropped before the completion
	// callbacks, which only read their data, run.
	trusted mem.Block

	// Disabled is set once the error policy shuts the accelerator out.
	Disabled bool
	// Quarantined is set once the quarantine policy fences the
	// accelerator (graceful degradation: the host keeps running on
	// trusted state, the accelerator is nacked).
	Quarantined bool
	errors      int

	// epoch is the guard epoch: 0 until the first device reset, bumped
	// on every reintegration. Stamped on outbound accelerator messages;
	// accelerator messages carrying any other epoch are dropped as
	// XG.StaleEpoch.
	epoch uint32
	// recoveries counts completed reintegrations; once it reaches
	// maxRecoveries the next quarantine is permanent.
	recoveries int
	// recovering is set while a recovery (backoff, drain, or reset) is
	// in flight, so a second scheduling attempt is inert.
	recovering bool
	// permanent marks a quarantine that recovery will never reopen.
	permanent bool
	// resetHook, when set, reinitializes the fenced accelerator
	// hierarchy (caches to Invalid, sequencers flushed) under the new
	// epoch at the reset step of recovery.
	resetHook func(epoch uint32)

	// Statistics.
	PutSSuppressed  uint64 // PutS not forwarded (host evicts S silently)
	PutSForwarded   uint64
	SnoopsFiltered  uint64 // host requests answered without consulting the accelerator
	SnoopsForwarded uint64
	Timeouts        uint64
	RetriesSent     uint64 // Invalidates re-sent after a recall deadline expired
	RateDelayed     uint64
	ReqsBlocked     uint64 // requests dropped by guarantee enforcement
	// Parked counts requests put on a line's wait list (a request that is
	// woken and must wait again counts again); Woken counts parked
	// requests re-run by a wake. Equal whenever no request is parked.
	Parked uint64
	Woken  uint64
	// RecallsCoalesced counts host recalls merged into an already-open
	// recall for the same block (one Invalidate serves every waiter).
	RecallsCoalesced uint64

	// Observability (nil-safe no-ops until AttachObs). The hot-path
	// instruments are fetched once; the per-code violation counters — an
	// adversary makes that path hot too — are created in obsReg on a code's
	// first violation and found in mViolation after that.
	obsReg     *obs.Registry
	mPass      *obs.Counter
	mPassAccel *obs.Counter
	mCrossing  *obs.Histogram
	mViolation map[string][2]*obs.Counter // by code: the counter and its @a<N> twin

	// Span tracing (Config.Spans). spanSeq numbers this guard's spans;
	// the emitted id is guard-node<<32|seq, unique and deterministic
	// across the guards of one machine. recoverySpan is the open recovery
	// cycle's span (0 outside recovery); recoveryMark/recoveryStart time
	// its phases. The mSpan* histogram pairs (aggregate + per-device) are
	// the crossing-anatomy instruments, prefetched like mCrossing.
	spanSeq       uint32
	recoverySpan  uint64
	recoveryMark  sim.Time
	recoveryStart sim.Time
	mSpanRequest  [2]*obs.Histogram
	mSpanCheck    [2]*obs.Histogram
	mSpanGrant    [2]*obs.Histogram
	mSpanRecall   [2]*obs.Histogram
	mSpanRetry    [2]*obs.Histogram
}

// accelTxn is an open accelerator-initiated transaction. It lives in its
// line's open-work record and is recycled with it.
type accelTxn struct {
	// serial is nonzero while the transaction is open: the serial of its
	// opening, which its dispatch timer carries.
	serial uint64
	kind   coherence.MsgType // AGetS, AGetM, APutM, APutE, APutS
	// data is the Put payload held at the guard: the transaction's own
	// block, given back when the transaction closes.
	data  *mem.Block
	dirty bool
	start sim.Time // acceptance tick, for the crossing-latency histogram
	// Span tracing (Config.Spans): the crossing's span id, its arrival
	// tick (request-phase start, before rate limiting and deferrals), and
	// the tick the request was dispatched to the host shim (check-phase
	// end). All zero with spans off.
	span   uint64
	arrive sim.Time
	fwd    sim.Time
}

// hostTxn is an open host-initiated recall toward the accelerator, in its
// line's open-work record like the accelTxn.
type hostTxn struct {
	// serial is nonzero while the recall is open: the serial of its opening.
	serial uint64
	// watchdog is the recall's armed Guarantee 2c deadline: exactly one while
	// the recall is open and Timeout is set, nil in the moment between one
	// firing and the retry or timeout it causes. closeRecall cancels it.
	watchdog *sim.Armed[deadline]
	wantData bool
	known    bool  // expect is authoritative
	expect   Grant // what the guard believes the accelerator holds (Full State)
	done     recallCont
	// waiters holds the continuations of recalls coalesced onto this one:
	// later host requests for the same block while this recall is in flight
	// do not send a second Invalidate — they wait here and complete from
	// the single response. The slice's storage stays with the work record.
	waiters []recallCont
	// Span tracing (Config.Spans): the recall's span id, its opening
	// tick, and the tick of the first watchdog retry (0 when the recall
	// never retried). All zero with spans off.
	span    uint64
	opened  sim.Time
	retryAt sim.Time
}

// recallCont is what a shim leaves behind when it starts a recall: which of
// its handlers to finish (kind, the shim's own numbering) and that handler's
// arguments, by value.
type recallCont struct {
	kind uint8
	getM bool // the host request was a Fwd_GetM
	// req is the host node whose request caused the recall (the L2 for an
	// inclusion recall), where most continuations send their answer.
	req coherence.NodeID
	// copy is the guard's trusted data, copied when the recall started
	// because the residency is gone when it completes (recallThenServe):
	// the continuation's own block, given back once it has run.
	copy  *mem.Block
	dirty bool // copy is dirty
}

// complete resumes the shim handler that started the closed recall ht and
// every one coalesced onto it, in arrival order, with the same resolution.
// data is a loan: a continuation only reads it, into the messages it sends
// and the writeback records it opens, so sharing the pointer is safe. None
// of them starts a recall, so nothing appends to the waiters' storage —
// still the work record's, which may be in use again — while it is read.
func (g *Guard) complete(addr mem.Addr, ht *hostTxn, data *mem.Block, dirty, viaPut bool) {
	g.resume(addr, ht.done, data, dirty, viaPut)
	for _, c := range ht.waiters {
		g.resume(addr, c, data, dirty, viaPut)
	}
}

func (g *Guard) resume(addr mem.Addr, c recallCont, data *mem.Block, dirty, viaPut bool) {
	g.shim.resume(addr, c, data, dirty, viaPut)
	g.fab.FreeBlock(c.copy)
}

// timerKind says what a deferred guard action does when its tick comes.
type timerKind uint8

const (
	timerGet   timerKind = iota // dispatch an accepted Get to the host shim
	timerPut                    // dispatch an accepted PutM/PutE as a host writeback
	timerPutS                   // forward a PutS
	timerAdmit                  // a rate-limited request's wait is over
)

// timer is the payload of one deferred guard action. One that belongs to a
// transaction carries the serial it was armed under and acts only if the
// record open at addr still has it: a record that has since closed reads 0,
// and one opened since — on the same recycled storage or not, at this address
// or another — a later serial. These wait a few ticks and are never
// cancelled; an overtaken one fires inert at its original tick.
type timer struct {
	kind    timerKind
	getKind GetKind // timerGet
	addr    mem.Addr
	serial  uint64
	arrive  sim.Time       // timerAdmit: the request's arrival tick
	m       *coherence.Msg // timerAdmit: the request, kept while it waits
}

// deadline is the payload of one armed watchdog. It waits 100 000 ticks or
// more and its recall usually closes within a few hundred, so it is not left
// to fire inert: the recall holds it (hostTxn.watchdog) and closing cancels
// it. serial is the recall's, which both a firing and a cancel check against.
type deadline struct {
	addr    mem.Addr
	serial  uint64
	attempt int // Invalidates re-sent so far: the lane it waits on
}

// fire runs one deferred action.
func (g *Guard) fire(t timer) {
	switch t.kind {
	case timerGet, timerPut:
		// A recall can consume a buffered Put in the latency window (the
		// Put/Inv race), in which case nothing reaches the host.
		txn := g.txnAt(t.addr)
		if txn == nil || txn.serial != t.serial {
			return
		}
		txn.fwd = g.eng.Now()
		g.spanEvent(obs.KindSpanPhase, txn.span, t.addr, 0, "check")
		if t.kind == timerGet {
			g.shim.get(t.addr, t.getKind)
		} else {
			g.writeback(t.addr, txn.data, txn.dirty, true)
		}
	case timerPutS:
		g.shim.putS(t.addr)
	case timerAdmit:
		g.fab.BeginRecv(t.m)
		g.processAccelRequest(t.m, t.arrive)
		g.fab.EndRecv(t.m)
	}
}

// nextSerial returns a serial no opening or arming has had.
func (g *Guard) nextSerial() uint64 {
	g.serial++
	return g.serial
}

// NewGuard builds the guard core; a shim must be attached with
// attachShim (done by NewHammerGuard / NewMESIGuard).
func newGuard(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	accel coherence.NodeID, cfg Config, sink coherence.ErrorSink) *Guard {
	g := &Guard{id: id, name: name, eng: eng, fab: fab, cfg: cfg, sink: sink, accel: accel,
		lines: make(map[mem.Addr]*line)}
	g.wakeEv.Fn = g.runWoken
	g.stampEpoch = g.stamp
	g.timers.Bind(eng, g.fire)
	if cfg.Timeout > 0 {
		g.watchdogs = make([]sim.Lane[deadline], max(cfg.RecallRetries, 0)+1)
		for attempt := range g.watchdogs {
			g.watchdogs[attempt].Bind(eng, cfg.Timeout<<attempt, g.recallDeadline)
		}
	}
	fab.Register(g)
	return g
}

// resetState empties the table when recovery readmits a reset device
// (reintegrate). Every block a line still holds goes back to the block
// list and every record to its free list.
func (g *Guard) resetState() {
	for a, l := range g.lines {
		g.fab.FreeBlock(l.copy)
		if w := l.work; w != nil {
			g.fab.FreeBlock(w.txn.data)
			g.fab.FreeBlock(w.get.data)
			g.fab.FreeBlock(w.put.data)
			g.freeWork.Put(w)
		}
		delete(g.lines, a)
		g.freeLines.Put(l)
	}
}

// SetAccelTag labels this guard with its accelerator device index
// (0-based). Tag 0 — the first or only device — leaves trace events and
// metric names exactly as before; nonzero tags stamp an accel field on
// the guard's trace events and register per-accelerator metric variants
// alongside the aggregates. Call before AttachObs.
func (g *Guard) SetAccelTag(tag int) { g.accelTag = tag }

// AccelTag reports the device label set by SetAccelTag.
func (g *Guard) AccelTag() int { return g.accelTag }

// metricSuffix is the per-accelerator metric-name suffix ("@a<tag>").
func (g *Guard) metricSuffix() string { return "@a" + strconv.Itoa(g.accelTag) }

// AttachObs registers the guard's instruments with r: the
// guard.check.pass counter (requests that cleared every guarantee
// check), per-code guard.violation.<code> counters (XG.G0a .. XG.G2c,
// XG.BadMessage, XG.BadSource, XG.Disabled), and the xg.crossing.ticks
// histogram measuring request acceptance to grant/writeback-ack. Each
// pass/violation counter also increments a per-accelerator variant
// suffixed "@a<device>" so reports can break guarantee outcomes down by
// accelerator. Violations and recall timeouts are also emitted as
// structured events on the fabric's trace bus when one is attached. A
// nil registry leaves the guard uninstrumented.
func (g *Guard) AttachObs(r *obs.Registry) {
	g.obsReg, g.mViolation = r, nil
	g.mPass = r.Counter("guard.check.pass")
	g.mPassAccel = r.Counter("guard.check.pass" + g.metricSuffix())
	g.mCrossing = r.Histogram("xg.crossing.ticks")
	if g.cfg.Spans {
		// The crossing-anatomy histograms exist only with span tracing on,
		// so span-free metric snapshots stay byte-identical.
		suffix := g.metricSuffix()
		g.mSpanRequest = [2]*obs.Histogram{r.Histogram("xg.span.request.ticks"), r.Histogram("xg.span.request.ticks" + suffix)}
		g.mSpanCheck = [2]*obs.Histogram{r.Histogram("xg.span.check.ticks"), r.Histogram("xg.span.check.ticks" + suffix)}
		g.mSpanGrant = [2]*obs.Histogram{r.Histogram("xg.span.grant.ticks"), r.Histogram("xg.span.grant.ticks" + suffix)}
		g.mSpanRecall = [2]*obs.Histogram{r.Histogram("xg.span.recall.ticks"), r.Histogram("xg.span.recall.ticks" + suffix)}
		g.mSpanRetry = [2]*obs.Histogram{r.Histogram("xg.span.retry.ticks"), r.Histogram("xg.span.retry.ticks" + suffix)}
	}
}

// ID implements coherence.Controller.
func (g *Guard) ID() coherence.NodeID { return g.id }

// AccelID reports the accelerator node this guard fronts (fault-injection
// wiring selects the guard<->accelerator channels with it).
func (g *Guard) AccelID() coherence.NodeID { return g.accel }

// Name implements coherence.Controller.
func (g *Guard) Name() string { return g.name }

// Recv dispatches accelerator-interface messages to the guard core and
// host-protocol messages to the shim. The accelerator's physical link
// terminates at the guard, so anything arriving from the accelerator
// that is not one of the interface's eight message types — in particular
// raw host-protocol messages a malicious accelerator might forge — is
// dropped and reported, never forwarded (the API-boundary property of
// §1/§2). The source check also rejects interface messages forged by a
// different accelerator device: each guard accepts interface traffic
// from exactly the one accelerator node it fronts.
func (g *Guard) Recv(m *coherence.Msg) {
	fromAccel := m.Src == g.accel
	if fromAccel && m.Epoch != g.epoch {
		// A pre-reset straggler (late data reply, duplicated or delayed
		// message) delivered after reintegration bumped the epoch: drop
		// it before it can touch the fresh table. Counted and traced as
		// XG.StaleEpoch but not charged to the error score — the current
		// device did not misbehave, its predecessor did.
		g.staleEpoch(m)
		return
	}
	switch {
	case m.Type.IsAccelRequest():
		if !fromAccel {
			g.violation("XG.BadSource", fmt.Sprintf("%v from non-accelerator node %d", m.Type, m.Src), m.Addr.Line())
			return
		}
		g.handleAccelRequest(m)
	case m.Type.IsAccelResponse():
		if !fromAccel {
			g.violation("XG.BadSource", fmt.Sprintf("%v from non-accelerator node %d", m.Type, m.Src), m.Addr.Line())
			return
		}
		g.handleAccelResponse(m)
	default:
		if fromAccel {
			g.ReqsBlocked++
			g.violation("XG.BadMessage", fmt.Sprintf("accelerator sent non-interface message %v", m.Type), m.Addr.Line())
			return
		}
		g.shim.recv(m)
	}
}

// send takes a message holding t from the pool and hands it to the fabric.
func (g *Guard) send(t coherence.Msg) { g.fab.Send(g.fab.Msg(t)) }

// staleEpoch drops one accelerator message carrying an outdated epoch.
// Unlike violation, it neither scores the error nor reports to the sink:
// a stale straggler is the fenced predecessor's traffic, and charging it
// to the freshly readmitted device would re-trip quarantine on ghosts.
func (g *Guard) staleEpoch(m *coherence.Msg) {
	g.ReqsBlocked++
	g.countViolation("XG.StaleEpoch")
	if b := g.fab.Bus; b.Active() {
		b.Emit(obs.Event{
			Tick: g.eng.Now(), Component: g.name, Kind: obs.KindViolation,
			Addr: m.Addr.Line(), Accel: g.accelTag, Msg: m.Type,
			Payload: fmt.Sprintf("XG.StaleEpoch: %v from epoch %d dropped (guard epoch %d)", m.Type, m.Epoch, g.epoch),
		})
	}
}

// newSpanID allocates the next causal span id for this guard:
// guard-node<<32|sequence, unique and deterministic across the guards of
// one machine. Only called with Config.Spans on, so span-free runs never
// advance the counter.
func (g *Guard) newSpanID() uint64 {
	g.spanSeq++
	return uint64(uint32(g.id))<<32 | uint64(g.spanSeq)
}

// spanEvent emits one span-lifecycle trace event (Config.Spans only).
// from, when nonzero, names the host node whose request caused the
// transition; the Perfetto exporter draws cross-device flow arrows from
// it.
func (g *Guard) spanEvent(kind obs.Kind, span uint64, addr mem.Addr, from coherence.NodeID, payload string) {
	if !g.cfg.Spans || span == 0 {
		return
	}
	if b := g.fab.Bus; b.Active() {
		b.Emit(obs.Event{
			Tick: g.eng.Now(), Component: g.name, Kind: kind,
			Addr: addr, From: from, Accel: g.accelTag, Span: span, Payload: payload,
		})
	}
}

// observeSpan records one phase duration into an aggregate+per-device
// histogram pair (nil-safe before AttachObs).
func observeSpan(h [2]*obs.Histogram, v float64) {
	h[0].Observe(v)
	h[1].Observe(v)
}

// closeCrossingSpan ends one accelerator crossing's span and feeds the
// per-phase anatomy histograms: request (arrival to acceptance — rate
// limiting and busy-line deferrals), check (acceptance to host
// dispatch), grant (host dispatch to completion). A crossing consumed
// before its dispatch closure ran (the Put/Inv race) has no dispatch
// tick and contributes only its request phase. t is the caller's copy of the
// closed transaction.
func (g *Guard) closeCrossingSpan(t *accelTxn, addr mem.Addr, outcome string) {
	if !g.cfg.Spans || t.span == 0 {
		return
	}
	observeSpan(g.mSpanRequest, float64(t.start-t.arrive))
	if t.fwd != 0 {
		observeSpan(g.mSpanCheck, float64(t.fwd-t.start))
		observeSpan(g.mSpanGrant, float64(g.eng.Now()-t.fwd))
	}
	g.spanEvent(obs.KindSpanEnd, t.span, addr, 0, outcome)
}

// countViolation bumps guard.violation.<code> and its per-accelerator twin,
// building the two names and creating the counters on the code's first
// violation only.
func (g *Guard) countViolation(code string) {
	if g.obsReg == nil {
		return
	}
	c, ok := g.mViolation[code]
	if !ok {
		name := "guard.violation." + code
		c = [2]*obs.Counter{g.obsReg.Counter(name), g.obsReg.Counter(name + g.metricSuffix())}
		if g.mViolation == nil {
			g.mViolation = make(map[string][2]*obs.Counter)
		}
		g.mViolation[code] = c
	}
	c[0].Inc()
	c[1].Inc()
}

// violation records a guarantee violation and applies the error policy.
func (g *Guard) violation(code, detail string, addr mem.Addr) {
	g.errors++
	g.countViolation(code)
	if b := g.fab.Bus; b.Active() {
		b.Emit(obs.Event{
			Tick: g.eng.Now(), Component: g.name, Kind: obs.KindViolation,
			Addr: addr, Accel: g.accelTag, Payload: code + ": " + detail,
		})
	}
	g.sink.ReportError(coherence.ProtocolError{
		Where: g.name, Code: code, Addr: addr, Detail: detail,
	})
	if g.cfg.DisableAfter > 0 && g.errors >= g.cfg.DisableAfter && !g.Disabled {
		g.Disabled = true
		g.wakeAll() // parked requests are dropped like new arrivals
		g.countViolation("XG.Disabled")
		g.sink.ReportError(coherence.ProtocolError{
			Where: g.name, Code: "XG.Disabled", Addr: addr,
			Detail: fmt.Sprintf("accelerator disabled after %d violations", g.errors),
		})
	}
	if g.cfg.QuarantineAfter > 0 && g.errors >= g.cfg.QuarantineAfter && !g.Quarantined {
		g.enterQuarantine(addr)
	}
}

// enterQuarantine fences the accelerator (graceful degradation): every
// open recall is resolved immediately from trusted state, the Full State
// table's lines become guard-held trusted copies for answering future
// host forwards, and subsequent accelerator requests are nacked. The host
// never waits on a quarantined accelerator again.
func (g *Guard) enterQuarantine(addr mem.Addr) {
	g.Quarantined = true
	g.obsReg.Counter("guard.quarantine.entered").Inc()
	if g.cfg.Mode == FullState {
		g.obsReg.Counter("guard.quarantine.fenced_lines").Add(uint64(g.TableEntries()))
	}
	if b := g.fab.Bus; b.Active() {
		b.Emit(obs.Event{
			Tick: g.eng.Now(), Component: g.name, Kind: obs.KindQuarantine,
			Addr: addr, Accel: g.accelTag, Payload: fmt.Sprintf("accelerator quarantined after %d violations", g.errors),
		})
	}
	g.sink.ReportError(coherence.ProtocolError{
		Where: g.name, Code: "XG.Quarantined", Addr: addr,
		Detail: fmt.Sprintf("accelerator quarantined after %d violations", g.errors),
	})
	// Resolve open recalls in address order (map iteration is randomized;
	// resolution order must be deterministic). Mirrors recallTimeout's
	// trusted-state answer without charging additional timeouts.
	for _, l := range g.sortedLines(hasRecall) {
		a := l.addr
		g.obsReg.Counter("guard.quarantine.recalls").Inc()
		ht := g.closeRecall(l, "quarantine")
		g.answerFromTrusted(a, &ht)
	}
	g.scheduleRecovery(addr)
}

// answerFromTrusted completes the closed recall ht on the accelerator's
// behalf, and writes the accelerator's copy off (the residency ends): the
// guard's trusted copy when Full State kept one, a zero-block writeback
// when the guard knows the accelerator owned the block (the Guarantee 2c
// substitution), and a plain ack otherwise. The last case matters for
// Transactional guards, whose view is Unknown: answering without data
// lets the host serve its own — possibly stale — copy, which 2c
// sanctions, whereas injecting dirty zeros for a block the accelerator
// held at most shared would trample the live host owner's data (on
// broadcast hosts the requestor receives both "owners'" responses and
// may adopt the zeros).
func (g *Guard) answerFromTrusted(addr mem.Addr, ht *hostTxn) {
	_, e := g.accelHolds(addr)
	switch {
	case !ht.wantData:
		g.complete(addr, ht, nil, false, false)
	case e != nil && e.copy != nil:
		g.complete(addr, ht, e.copy, e.dirty, false)
	case ht.known:
		g.complete(addr, ht, &zeroBlock, true, false)
	default:
		g.complete(addr, ht, nil, false, false)
	}
	g.drop(addr)
}

// --- accelerator requests (GetS, GetM, PutM, PutE, PutS) ---

func (g *Guard) handleAccelRequest(m *coherence.Msg) {
	if g.Quarantined {
		// Fenced accelerator: refuse service explicitly. Nack rather than
		// silently drop so a confused-but-live accelerator's transactions
		// terminate instead of hanging its internal state machine.
		g.ReqsBlocked++
		g.obsReg.Counter("guard.quarantine.nacks").Inc()
		addr := m.Addr.Line()
		g.sendToAccelAfter(coherence.ANack, addr, nil, 0)
		return
	}
	if g.Disabled {
		g.ReqsBlocked++
		return
	}
	arrive := g.eng.Now()
	// §2.5: rate-limit requests (responses are never delayed). The
	// limiter hands out a single wait per request (queue semantics).
	if g.cfg.Rate != nil {
		if wait := g.cfg.Rate.Admit(arrive); wait > 0 {
			g.RateDelayed++
			m.Keep()
			g.timers.After(wait, timer{kind: timerAdmit, m: m, arrive: arrive})
			return
		}
	}
	g.processAccelRequest(m, arrive)
}

// processAccelRequest runs the guarantee checks after rate admission.
// arrive is the request's original arrival tick (kept across rate-limit
// waits and time on the wait list; it anchors the span request phase).
// A request for a line with an open host-side transaction or an open
// recall is parked, and runs through here again, from the top, in the
// tick that closes it.
func (g *Guard) processAccelRequest(m *coherence.Msg, arrive sim.Time) {
	if g.Disabled {
		g.ReqsBlocked++
		return
	}
	addr := m.Addr.Line()

	// Guarantee 0: page permissions.
	access := perm.ReadWrite
	if g.cfg.Perms != nil {
		access = g.cfg.Perms.Lookup(addr)
	}
	if !access.AllowsRead() {
		g.ReqsBlocked++
		g.violation("XG.G0a", fmt.Sprintf("%v for page with no access", m.Type), addr)
		return
	}
	// Guarantee 0b: no exclusive (write) request, and no dirty data,
	// without page write permission.
	if m.Type == coherence.AGetM || m.Type == coherence.APutM {
		if !access.AllowsWrite() {
			g.ReqsBlocked++
			g.violation("XG.G0b", fmt.Sprintf("%v for read-only page", m.Type), addr)
			return
		}
	}

	l := g.lines[addr]
	if hasWork(l) {
		w := l.work
		switch {
		case w.txn.serial != 0:
			// Guarantee 1b: at most one outstanding transaction per address.
			g.ReqsBlocked++
			g.violation("XG.G1b", fmt.Sprintf("%v while a transaction is already open", m.Type), addr)
			return
		case w.recall.serial != 0:
			// A request racing with an open host recall: only a Put is
			// meaningful (the legitimate Put/Inv race, §2.1); it resolves
			// the recall. Gets during a recall are held until it closes.
			switch m.Type {
			case coherence.APutM, coherence.APutE, coherence.APutS:
				g.resolveRecallByPut(l, m)
			default:
				g.park(addr, m, arrive)
			}
			return
		case w.get.open || w.put.open:
			// Hold requests for lines with an open host-side transaction
			// (e.g. a relinquish writeback still in flight): a cache never
			// issues a Get while its own Put for the line is outstanding.
			g.park(addr, m, arrive)
			return
		}
	}

	// Guarantee 1a: request consistent with the stable accelerator
	// state. Full State checks its table; Transactional relies on host
	// tolerance (§2.3.2) and can only sanity-check Puts carry data.
	if g.cfg.Mode == FullState {
		if err := l.checkRequest(m.Type); err != "" {
			g.ReqsBlocked++
			g.violation("XG.G1a", err, addr)
			// Every request gets exactly one response: fail Puts fast so
			// a *correct-but-confused* accelerator is not left hanging.
			switch m.Type {
			case coherence.APutM, coherence.APutE, coherence.APutS:
				g.sendToAccelAfter(coherence.AWBAck, addr, nil, 0)
			}
			return
		}
	}
	// Malformed data-carrying requests (Guarantee 1 hygiene): the guard
	// forwards a zero block in place of the missing data.
	data := m.Data
	if (m.Type == coherence.APutM || m.Type == coherence.APutE) && data == nil {
		g.violation("XG.G1a", "Put without data", addr)
		data = &zeroBlock
	}

	g.forwardRequest(addr, m.Type, data, access, arrive)
}

// forwardRequest opens the transaction synchronously (so that racing
// host forwards observe it) and dispatches to the host shim after the
// guard's processing latency (fire), if the very same transaction is still
// open then. With span tracing on, the accepted crossing opens its span
// here and marks the check-phase end at dispatch.
//
// data is the Put payload, on loan from the request message: the
// transaction copies it into a block of its own, which the shim's
// writeback record and the host message copy from in turn.
func (g *Guard) forwardRequest(addr mem.Addr, ty coherence.MsgType, data *mem.Block, access perm.Access, arrive sim.Time) {
	g.mPass.Inc()
	g.mPassAccel.Inc()
	switch ty {
	case coherence.AGetS, coherence.AGetM:
		t := g.openTxn(addr, ty, arrive)
		kind := GetExcl
		if ty == coherence.AGetS {
			kind = GetShared
			if !access.AllowsWrite() && g.cfg.Mode == Transactional {
				// Read-only page: never let the host hand us an
				// upgradable grant (Guarantee 0b). Transactional guards
				// need the host's non-upgradable GetS (§3.2); Full State
				// guards may use a plain GetS and keep a trusted data
				// copy when the host grants ownership anyway (§2.3.1).
				kind = GetSharedOnly
			}
		}
		g.timers.After(g.cfg.GuardLat, timer{kind: timerGet, getKind: kind, addr: addr, serial: t.serial})
	case coherence.APutM, coherence.APutE:
		t := g.openTxn(addr, ty, arrive)
		t.data, t.dirty = g.fab.CopyBlock(data), ty == coherence.APutM
		g.timers.After(g.cfg.GuardLat, timer{kind: timerPut, addr: addr, serial: t.serial})
	case coherence.APutS:
		if g.shim.suppressPutS() {
			// Host evicts shared blocks silently; drop the message
			// (§2.1) and ack the accelerator directly.
			g.PutSSuppressed++
		} else {
			g.PutSForwarded++
			g.timers.After(g.cfg.GuardLat, timer{kind: timerPutS, addr: addr})
		}
		g.drop(addr)
		g.sendToAccelAfter(coherence.AWBAck, addr, nil, 0)
	}
}

// openTxn registers an accepted request as the line's open transaction,
// under a fresh serial, and, with span tracing on, opens its crossing span.
// The record is the line's until closeTxn.
func (g *Guard) openTxn(addr mem.Addr, kind coherence.MsgType, arrive sim.Time) *accelTxn {
	l := g.workFor(addr)
	t := &l.work.txn
	*t = accelTxn{serial: g.nextSerial(), kind: kind, start: g.eng.Now(), arrive: arrive}
	g.wake(l)
	if g.cfg.Spans {
		t.span = g.newSpanID()
		g.spanEvent(obs.KindSpanBegin, t.span, addr, 0, "crossing "+kind.String())
	}
	return t
}

// closeTxn retires l's open accelerator transaction and wakes the
// requests parked behind it. The record may be recycled at once: a caller
// that still needs it, or must free its block, copies it first.
func (g *Guard) closeTxn(l *line) {
	l.work.txn = accelTxn{}
	g.closed(l)
}

// granted is called by the shim when the host satisfies a get; data (nil
// reads as a zero block) is copied into the grant message.
func (g *Guard) granted(addr mem.Addr, level Grant, data *mem.Block, dirty bool) {
	l := g.lines[addr]
	if !hasTxn(l) {
		panic(fmt.Sprintf("%s: host grant for %v with no transaction", g.name, addr))
	}
	t := l.work.txn // a copy: the record goes with closeTxn
	if data == nil {
		data = &zeroBlock
	}
	accelLevel, keepCopy := level, false
	switch {
	case g.Quarantined:
		// The grant raced the quarantine: the host has handed the line
		// over, but the accelerator must not see it. The guard claims the
		// line itself. A trusted copy is kept only for exclusive grants,
		// where the guard is the host-side owner and must supply data on
		// later forwards; for a shared grant another host cache may own
		// the line, and a sharer volunteering data would hand the
		// requestor two data responses.
		keepCopy = level != GrantS
	case level != GrantS && g.cfg.Perms != nil && !g.cfg.Perms.Peek(addr).AllowsWrite():
		// Guarantee 0b: an exclusive grant for a read-only page must be
		// degraded; the guard keeps the trusted copy so it can answer later
		// host forwards without the accelerator (§2.3.1).
		accelLevel, keepCopy = GrantS, true
	}
	if g.cfg.Mode == FullState {
		g.grant(l, accelLevel, level, keepCopy, data, dirty)
	}
	g.closeTxn(l)
	if g.Quarantined {
		g.closeCrossingSpan(&t, addr, "grant-quarantined")
		return
	}
	var ty coherence.MsgType
	switch {
	case t.kind == coherence.AGetM || accelLevel == GrantM:
		ty = coherence.ADataM
	case accelLevel == GrantE:
		ty = coherence.ADataE
	default:
		ty = coherence.ADataS
	}
	g.mCrossing.Observe(float64(g.eng.Now() - t.start))
	if b := g.fab.Bus; b.Active() {
		b.Emit(obs.Event{
			Tick: g.eng.Now(), Component: g.name, Kind: obs.KindGrant,
			Addr: addr, Accel: g.accelTag, Msg: ty, To: g.accel, Span: t.span,
			Payload: accelLevel.String(),
		})
	}
	if t.span != 0 { // the outcome string is only built for a live span
		g.closeCrossingSpan(&t, addr, "grant "+accelLevel.String())
	}
	g.sendToAccelAfter(ty, addr, data, t.span)
}

// putDone completes the accelerator's Put once the host has acknowledged
// its writeback (retirePut).
func (g *Guard) putDone(addr mem.Addr) {
	l := g.lines[addr]
	if !hasTxn(l) {
		// The transaction may have been closed by a racing recall.
		return
	}
	t := l.work.txn // a copy: the record goes with closeTxn
	g.mCrossing.Observe(float64(g.eng.Now() - t.start))
	g.fab.FreeBlock(t.data)
	g.closeTxn(l)
	g.drop(addr)
	if g.Quarantined {
		// Writeback completed after the fence; the data is safely with the
		// host, but the fenced accelerator gets no ack (it would be nacked
		// if it asked again anyway).
		g.closeCrossingSpan(&t, addr, "wback-quarantined")
		return
	}
	g.closeCrossingSpan(&t, addr, "wback")
	g.sendToAccelAfter(coherence.AWBAck, addr, nil, t.span)
}

// sendToAccelAfter sends one guard->accelerator interface message after
// the guard's processing latency, carrying the causal span id of the
// transaction it belongs to (0 outside any span, and with span tracing
// off). The epoch is stamped when the message leaves, not when it is
// scheduled, so a reply still inside the guard across a reintegration
// goes out under the new epoch.
func (g *Guard) sendToAccelAfter(ty coherence.MsgType, addr mem.Addr, data *mem.Block, span uint64) {
	g.fab.SendAfter(g.cfg.GuardLat, g.fab.Msg(coherence.Msg{Type: ty, Addr: addr, Src: g.id, Dst: g.accel,
		Data: data, Span: span}), g.stampEpoch)
}

func (g *Guard) stamp(m *coherence.Msg) { m.Epoch = g.epoch }

// Outstanding reports open guard transactions (accelerator transactions,
// recalls, host gets and writebacks) and parked requests (for deadlock
// detection: a parked request has no engine event of its own).
func (g *Guard) Outstanding() int {
	return g.count(hasTxn) + g.count(hasRecall) + g.count(hasGet) + g.count(hasPut) + g.parkedNow
}

// StorageBytes models the hardware state this guard variant requires
// (§2.3, experiment E8): Full State pays tag+state per resident block
// (plus a data copy for read-only-owned blocks); both pay per open
// transaction.
func (g *Guard) StorageBytes() int {
	const tagStateBytes = 6 // ~42-bit tag + state bits, rounded up
	const txnBytes = 8 + mem.BlockBytes
	return (g.count(hasTxn)+g.count(hasRecall))*txnBytes +
		g.count(isResident)*tagStateBytes + g.count(hasCopy)*mem.BlockBytes
}

// Errors reports the number of guarantee violations recorded.
func (g *Guard) Errors() int { return g.errors }

// Epoch reports the guard epoch (0 until the first device reset).
func (g *Guard) Epoch() uint32 { return g.epoch }

// Recoveries reports completed quarantine reintegrations.
func (g *Guard) Recoveries() int { return g.recoveries }

// PermanentlyQuarantined reports whether the recovery policy has given up
// on this device (maxRecoveries readmissions spent).
func (g *Guard) PermanentlyQuarantined() bool { return g.permanent }

// SetResetHook installs the device-reset callback recovery invokes at the
// reset step: the hook must reinitialize the accelerator hierarchy
// (caches to Invalid, sequencers flushed) and adopt the new epoch.
// Call before the simulation starts.
func (g *Guard) SetResetHook(fn func(epoch uint32)) { g.resetHook = fn }

// Mode reports the guard variant.
func (g *Guard) Mode() Mode { return g.cfg.Mode }

// VisitBlocks reports the Full State block table in address order (no-op
// for Transactional guards, which keep no block state).
func (g *Guard) VisitBlocks(fn func(addr mem.Addr, accel, host Grant, hasCopy bool)) {
	for _, l := range g.sortedLines(isResident) {
		fn(l.addr, l.accel, l.host, l.copy != nil)
	}
}

// TableEntries reports the Full State table occupancy (0 for
// Transactional).
func (g *Guard) TableEntries() int { return g.count(isResident) }
