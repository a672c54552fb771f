// Package core implements Crossing Guard (XG), the paper's contribution:
// trusted host hardware that (1) exposes the small standardized coherence
// interface of §2.1 to an accelerator, (2) translates it to the host
// protocol (Hammer-like MOESI or inclusive MESI, one table each, §3),
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
	// Nacking rather than dropping lets a confused-but-live accelerator
	// observe its fencing.
	QuarantineAfter int
	// RecoverAfter enables quarantine recovery: after this many ticks of
	// backoff, doubled for every earlier readmission, a quarantined device
	// is drained, reset, and reintegrated under a bumped guard epoch; after
	// maxRecoveries readmissions the next quarantine is permanent. 0 (the
	// default) keeps quarantine terminal.
	RecoverAfter sim.Time
	// Spans enables causal span tracing: every accepted crossing, recall
	// and recovery cycle gets a span id, paired span-begin/span-end (and
	// span-phase) trace events, the id stamped on its accelerator messages,
	// and the xg.span.* latency histograms. It never changes simulated
	// timing or message order.
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

	// The host half (host.go): the protocol, the node the guard asks
	// (directory or L2), how many responses complete a get (-1: the first
	// says) and the visits to the protocol's table.
	host      *hostProto
	home      coherence.NodeID
	responses int
	hostCov   *coherence.Coverage

	// lines is the guard's one table (line.go): everything it knows about
	// a block, keyed by line address. Lines and their open-work records
	// are recycled through the two free lists.
	lines     map[mem.Addr]*line
	rules     *coherence.Rules[viewState, rule] // the mode's table (rules.go)
	cov       *coherence.Coverage               // its visits
	freeLines coherence.RecPool[line]
	freeWork  coherence.RecPool[lineWork]
	inspect   []*line // the walks of the table in address order (inspected)

	// timers holds the guard's short deferred actions and watchdogs the
	// Guarantee 2c deadlines of the open recalls, one lane per retry
	// attempt: attempt n waits Timeout<<n.
	timers    sim.Deferred[timer]
	watchdogs []sim.Lane[deadline]

	// AccelTag is the accelerator's device index (0-based), stamped on
	// this guard's trace events and per-accelerator metric names (0 for the
	// first/only device, so single-accelerator traces and metric sets are
	// unchanged). Set it before AttachObs.
	AccelTag int

	// Wait list (waitlist.go): a line's parked requests are on its
	// open-work record; ready lists the lines whose parked requests the
	// armed wake event will re-run, and freePark pools the per-request
	// records.
	ready    []mem.Addr
	wakeEv   sim.Timed
	freePark coherence.RecPool[parkedReq]

	// stampEpoch is stamp bound once (Fabric.SendAfter's fill hook), and
	// onDeadline recallDeadline (the watchdog lanes' action).
	stampEpoch func(*coherence.Msg)
	onDeadline func(deadline)

	// resetHook, when set, reinitializes the fenced accelerator
	// hierarchy (caches to Invalid, sequencers flushed) under the new
	// epoch at the reset step of recovery.
	resetHook func(epoch uint32)

	// Observability (nil-safe no-ops until AttachObs). The hot-path
	// instruments are fetched once; the per-code violation counters — an
	// adversary makes that path hot too — are created in obsReg on a code's
	// first violation and found in mViolation after that. mSpan holds span
	// tracing's crossing-anatomy histograms by phase. Each pair is an
	// instrument and its per-device twin (twins).
	obsReg     *obs.Registry
	mPass      [2]*obs.Counter
	mCrossing  *obs.Histogram
	mViolation map[string][2]*obs.Counter // by code
	mSpan      [len(spanPhases)][2]*obs.Histogram

	runState
}

// runState is what one run of the guard changes besides its table: Restart
// zeroes it in one assignment. Its exported counters are the Guard's.
type runState struct {
	// serial stamps every opening of a transaction or recall; it only
	// counts up, so no two ever share a value (timer).
	serial uint64

	// Quarantined is set once the quarantine policy fences the
	// accelerator (graceful degradation: the host keeps running on
	// trusted state, the accelerator is nacked).
	Quarantined bool
	errors      int

	// Epoch is the guard epoch: 0 until the first device reset, bumped
	// on every reintegration. Stamped on outbound accelerator messages;
	// accelerator messages carrying any other epoch are dropped as
	// XG.StaleEpoch.
	Epoch uint32
	// Recoveries counts completed reintegrations; once it reaches
	// maxRecoveries the next quarantine is permanent.
	Recoveries int
	// recovering is set while a recovery (backoff, drain, or reset) is
	// in flight, so a second scheduling attempt is inert.
	recovering bool
	// PermanentlyQuarantined marks a quarantine that recovery will never
	// reopen (maxRecoveries readmissions spent).
	PermanentlyQuarantined bool

	// Statistics.
	PutSSuppressed  uint64 // PutS not forwarded (host evicts S silently)
	PutSForwarded   uint64
	SnoopsFiltered  uint64 // host requests answered without consulting the accelerator
	SnoopsForwarded uint64
	Timeouts        uint64
	RateDelayed     uint64
	// Parked counts requests put on a line's wait list (a request that is
	// woken and must wait again counts again); Woken counts parked
	// requests re-run by a wake. Their difference is what is parked now.
	Parked uint64
	Woken  uint64

	// Span tracing (Config.Spans). spanSeq numbers this guard's spans;
	// the emitted id is guard-node<<32|seq, unique and deterministic
	// across the guards of one machine. recoverySpan is the open recovery
	// cycle's span (0 outside recovery); recoveryMark/recoveryStart time
	// its phases.
	spanSeq       uint32
	recoverySpan  uint64
	recoveryMark  sim.Time
	recoveryStart sim.Time
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
	// the tick the request was dispatched to the host (check-phase
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
	// view is what the guard believed the accelerator held when the recall
	// opened: it decides the host's answer (hostAnswer).
	view viewState
	done recallCont
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

// recallCont is what a host cell leaves behind when it starts a recall: the
// cell itself, which resume runs, and what it answers with, by value.
type recallCont struct {
	do *hostRule
	// req is the host node whose request caused the recall (the L2 for an
	// inclusion recall), where most continuations send their answer.
	req coherence.NodeID
	// copy is the guard's trusted data, copied when a serving cell's recall
	// started because the residency is gone when it ends (recvHost): the
	// continuation's own block, given back once it has run.
	copy  *mem.Block
	dirty bool // copy is dirty
}

// timerKind says what a deferred guard action does when its tick comes.
type timerKind uint8

const (
	timerGet   timerKind = iota // dispatch an accepted Get to the host
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
		l := g.lines[t.addr]
		if !hasTxn(l) || l.work.txn.serial != t.serial {
			return
		}
		txn := &l.work.txn
		txn.fwd = g.eng.Now()
		g.spanEvent(obs.KindSpanPhase, txn.span, t.addr, 0, "check")
		if t.kind == timerGet {
			g.askHost(t.addr, t.getKind)
		} else {
			g.writeback(t.addr, txn.data, txn.dirty, true)
		}
	case timerPutS:
		g.send(coherence.Msg{Type: g.host.putS, Addr: t.addr, Src: g.id, Dst: g.home})
	case timerAdmit:
		g.rerun(t.m, t.arrive)
	}
}

// rerun runs a request the guard kept — one that waited for the rate
// limiter or on a wait list — through the checks again, as a delivery of
// the kept message: it goes back to its pool afterwards unless it parked
// again.
func (g *Guard) rerun(m *coherence.Msg, arrive sim.Time) {
	g.fab.BeginRecv(m)
	g.processAccelRequest(m, arrive)
	g.fab.EndRecv(m)
}

// newGuard builds a guard that speaks host to home (NewHammerGuard,
// NewMESIGuard).
func newGuard(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	accel coherence.NodeID, host *hostProto, home coherence.NodeID, responses int, cfg Config, sink coherence.ErrorSink) *Guard {
	g := &Guard{id: id, name: name, eng: eng, fab: fab, sink: sink, accel: accel,
		host: host, home: home, responses: responses, hostCov: host.rules.Coverage(),
		lines: make(map[mem.Addr]*line)}
	g.wakeEv.Fn = g.runWoken
	g.stampEpoch, g.onDeadline = g.stamp, g.recallDeadline
	g.timers.Bind(eng, g.fire)
	g.Restart(cfg)
	fab.Register(g)
	return g
}

// Restart returns the guard to its just-built state under cfg, for the
// machine's next run: an empty table, nothing open or parked, epoch 0,
// every counter zero. It keeps the wiring, the device-reset hook, the
// instruments and the storage: the table's map and its records' free
// lists. The engine, reset first, has already dropped every armed timer,
// and the pool takes every block back after, so the blocks the table gives
// back are gone with the rest. newGuard ends in it.
func (g *Guard) Restart(cfg Config) {
	g.clearTable()
	// A lane's records point back at it, so lanes never move: a guard
	// that needs more than it has takes a new array.
	g.watchdogs = g.watchdogs[:0]
	if n := max(cfg.RecallRetries, 0) + 1; cfg.Timeout > 0 {
		if n > cap(g.watchdogs) {
			g.watchdogs = make([]sim.Lane[deadline], n)
		}
		g.watchdogs = g.watchdogs[:n]
		for attempt := range g.watchdogs {
			g.watchdogs[attempt].Reset()
			g.watchdogs[attempt].Bind(g.eng, cfg.Timeout<<attempt, g.onDeadline)
		}
	}
	g.cfg, g.rules, g.runState = cfg, guardRules[cfg.Mode], runState{}
	if g.cov == nil || g.cov.Name() != g.rules.Class {
		g.cov = g.rules.Coverage()
	}
	g.cov.Reset()
	g.hostCov.Reset()
}

// clearTable empties the table, for a new run or a readmitted device
// (reintegrate): every block a line holds goes back to the block list and
// every record, a parked request's too, to its free list.
func (g *Guard) clearTable() {
	for _, l := range g.lines {
		g.fab.FreeBlock(l.copy)
		if w := l.work; w != nil {
			g.fab.FreeBlock(w.txn.data)
			g.fab.FreeBlock(w.get.data)
			g.fab.FreeBlock(w.put.data)
			for p := w.wait.head; p != nil; {
				next := p.next
				g.freePark.Put(p)
				p = next
			}
			g.freeWork.Put(w)
		}
		g.freeLines.Put(l)
	}
	clear(g.lines)
	g.ready = g.ready[:0]
}

// twins returns the instruments get makes of name and of its per-device
// twin, name@a<device>.
func twins[T any](g *Guard, get func(string) T, name string) [2]T {
	return [2]T{get(name), get(name + "@a" + strconv.Itoa(g.AccelTag))}
}

// add adds n to a counter and its twin.
func add(c [2]*obs.Counter, n uint64) {
	c[0].Add(n)
	c[1].Add(n)
}

// observe records v into a histogram and its twin.
func observe(h [2]*obs.Histogram, v float64) {
	h[0].Observe(v)
	h[1].Observe(v)
}

// AttachObs registers the guard's instruments with r: the
// guard.check.pass counter (requests that cleared every check), per-code
// guard.violation.<code> counters, each with a per-accelerator twin
// suffixed "@a<device>", and the xg.crossing.ticks histogram (acceptance
// to grant or writeback ack). A nil registry leaves the guard
// uninstrumented.
func (g *Guard) AttachObs(r *obs.Registry) {
	g.obsReg, g.mViolation = r, nil
	g.mPass = twins(g, r.Counter, "guard.check.pass")
	g.mCrossing = r.Histogram("xg.crossing.ticks")
	// The crossing-anatomy histograms exist only with span tracing on, so
	// span-free metric snapshots stay byte-identical.
	if g.cfg.Spans {
		for i, phase := range spanPhases {
			g.mSpan[i] = twins(g, r.Histogram, "xg.span."+phase+".ticks")
		}
	}
}

// The crossing-anatomy phases, xg.span.<phase>.ticks: request (arrival to
// acceptance — rate limiting and busy-line deferrals), check (acceptance to
// host dispatch), grant (host dispatch to completion), and a recall's
// duration and, when it needed watchdog retries, its tail past the first.
const (
	spanRequest = iota
	spanCheck
	spanGrant
	spanRecall
	spanRetry
)

var spanPhases = [...]string{"request", "check", "grant", "recall", "retry"}

// ID implements coherence.Controller.
func (g *Guard) ID() coherence.NodeID { return g.id }

// AccelID reports the accelerator node this guard fronts (fault-injection
// wiring selects the guard<->accelerator channels with it).
func (g *Guard) AccelID() coherence.NodeID { return g.accel }

// Name implements coherence.Controller.
func (g *Guard) Name() string { return g.name }

// Recv dispatches accelerator-interface messages to the guard's table and
// host-protocol messages to its host's (recvHost). The accelerator's physical link
// terminates at the guard, so anything arriving from the accelerator
// that is not one of the interface's eight message types — in particular
// raw host-protocol messages a malicious accelerator might forge — is
// dropped and reported, never forwarded (the API-boundary property of
// §1/§2). The source check also rejects interface messages forged by a
// different accelerator device: each guard accepts interface traffic
// from exactly the one accelerator node it fronts.
func (g *Guard) Recv(m *coherence.Msg) {
	fromAccel := m.Src == g.accel
	req, resp := m.Type.IsAccelRequest(), m.Type.IsAccelResponse()
	switch {
	case fromAccel && m.Epoch != g.Epoch:
		// A pre-reset straggler (late data reply, duplicated or delayed
		// message) delivered after reintegration bumped the epoch: dropped
		// before it can touch the fresh table, and counted and traced as
		// XG.StaleEpoch, but neither scored nor reported: charging the
		// fenced predecessor's traffic to the readmitted device would
		// re-trip quarantine on ghosts.
		g.countViolation("XG.StaleEpoch")
		if g.fab.Bus.Active() {
			g.emit(obs.Event{Kind: obs.KindViolation, Addr: m.Addr.Line(), Msg: m.Type,
				Payload: fmt.Sprintf("XG.StaleEpoch: %v from epoch %d dropped (guard epoch %d)", m.Type, m.Epoch, g.Epoch)})
		}
	case (req || resp) && !fromAccel:
		g.violation("XG.BadSource", fmt.Sprintf("%v from non-accelerator node %d", m.Type, m.Src), m.Addr.Line())
	case req && g.Quarantined:
		// Fenced accelerator: refuse service explicitly. Nack rather than
		// silently drop so a confused-but-live accelerator's transactions
		// terminate instead of hanging its internal state machine.
		g.obsReg.Counter("guard.quarantine.nacks").Inc()
		g.sendToAccelAfter(coherence.ANack, m.Addr.Line(), nil, 0)
	case req:
		// §2.5: rate-limit requests (responses are never delayed). The
		// limiter hands out a single wait per request (queue semantics).
		arrive := g.eng.Now()
		if g.cfg.Rate != nil {
			if wait := g.cfg.Rate.Admit(arrive); wait > 0 {
				g.RateDelayed++
				m.Keep()
				g.timers.After(wait, timer{kind: timerAdmit, m: m, arrive: arrive})
				return
			}
		}
		g.processAccelRequest(m, arrive)
	case resp && g.Quarantined:
		// A fenced accelerator has no pending host requests by
		// construction (quarantine resolved them all); swallow late
		// responses without the per-message G2b violation spam.
		g.obsReg.Counter("guard.quarantine.dropped").Inc()
	case resp:
		g.dispatch(m, perm.None, 0)
	case fromAccel:
		g.violation("XG.BadMessage", detailNotInterface.of(m.Type), m.Addr.Line())
	default:
		g.recvHost(m)
	}
}

// send takes a message holding t from the pool and hands it to the fabric.
func (g *Guard) send(t coherence.Msg) { g.fab.Send(g.fab.Msg(t)) }

// emit puts e on the trace bus, if one is listening, stamped with the tick
// and the guard's name and device. A caller whose payload costs to build
// checks the bus first.
func (g *Guard) emit(e obs.Event) {
	if b := g.fab.Bus; b.Active() {
		e.Tick, e.Component, e.Accel = g.eng.Now(), g.name, g.AccelTag
		b.Emit(e)
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
	if g.cfg.Spans && span != 0 {
		g.emit(obs.Event{Kind: kind, Addr: addr, From: from, Span: span, Payload: payload})
	}
}

// closeCrossingSpan ends one accelerator crossing's span and feeds its
// phases' anatomy histograms: request, check and grant. A crossing consumed
// before its dispatch closure ran (the Put/Inv race) has no dispatch
// tick and contributes only its request phase. t is the caller's copy of the
// closed transaction.
func (g *Guard) closeCrossingSpan(t *accelTxn, addr mem.Addr, outcome string) {
	if !g.cfg.Spans || t.span == 0 {
		return
	}
	observe(g.mSpan[spanRequest], float64(t.start-t.arrive))
	if t.fwd != 0 {
		observe(g.mSpan[spanCheck], float64(t.fwd-t.start))
		observe(g.mSpan[spanGrant], float64(g.eng.Now()-t.fwd))
	}
	g.spanEvent(obs.KindSpanEnd, t.span, addr, 0, outcome)
}

// countViolation bumps guard.violation.<code> and its per-accelerator twin,
// building the two names and creating the counters on the code's first
// violation only: the guard keeps them across restarts, and a counter its
// registry's reset hid is listed again by the first Inc of the next run.
func (g *Guard) countViolation(code string) {
	if g.obsReg == nil {
		return
	}
	c, ok := g.mViolation[code]
	if !ok {
		c = twins(g, g.obsReg.Counter, "guard.violation."+code)
		if g.mViolation == nil {
			g.mViolation = make(map[string][2]*obs.Counter)
		}
		g.mViolation[code] = c
	}
	add(c, 1)
}

// violation records a guarantee violation and applies the error policy.
func (g *Guard) violation(code, detail string, addr mem.Addr) {
	g.errors++
	g.countViolation(code)
	if g.fab.Bus.Active() {
		g.emit(obs.Event{Kind: obs.KindViolation, Addr: addr, Payload: code + ": " + detail})
	}
	g.sink.ReportError(coherence.ProtocolError{
		Where: g.name, Code: code, Addr: addr, Detail: detail,
	})
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
	detail := fmt.Sprintf("accelerator quarantined after %d violations", g.errors)
	g.emit(obs.Event{Kind: obs.KindQuarantine, Addr: addr, Payload: detail})
	g.sink.ReportError(coherence.ProtocolError{Where: g.name, Code: "XG.Quarantined", Addr: addr, Detail: detail})
	// Resolve open recalls in address order (map iteration is randomized;
	// resolution order must be deterministic), without charging timeouts.
	for _, l := range g.inspected(hasRecall) {
		g.obsReg.Counter("guard.quarantine.recalls").Inc()
		g.endRecall(l.addr, "quarantine", nil, nil)
	}
	g.scheduleRecovery(addr)
}

// --- accelerator requests (GetS, GetM, PutM, PutE, PutS) ---

// processAccelRequest runs the page-permission checks after rate admission
// and dispatches what passes through the guard's table (rules.go). arrive
// is the request's original arrival tick (kept across rate-limit waits and
// time on the wait list; it anchors the span request phase). A parked
// request runs through here again, from the top, in the tick that closes
// what it waits on.
func (g *Guard) processAccelRequest(m *coherence.Msg, arrive sim.Time) {
	addr := m.Addr.Line()

	// Guarantee 0: page permissions.
	access := perm.ReadWrite
	if g.cfg.Perms != nil {
		access = g.cfg.Perms.Lookup(addr)
	}
	if !access.AllowsRead() {
		g.violation("XG.G0a", detailNoAccess.of(m.Type), addr)
		return
	}
	// Guarantee 0b: no exclusive (write) request, and no dirty data,
	// without page write permission.
	if (m.Type == coherence.AGetM || m.Type == coherence.APutM) && !access.AllowsWrite() {
		g.violation("XG.G0b", detailReadOnly.of(m.Type), addr)
		return
	}

	g.dispatch(m, access, arrive)
}

// forwardRequest opens the transaction synchronously (so that racing
// host forwards observe it) and dispatches to the host after the
// guard's processing latency (fire), if the very same transaction is still
// open then. With span tracing on, the accepted crossing opens its span
// here and marks the check-phase end at dispatch.
//
// data is the Put payload, on loan from the request message: the
// transaction copies it into a block of its own, which the host
// writeback record and the host message copy from in turn.
func (g *Guard) forwardRequest(addr mem.Addr, ty coherence.MsgType, data *mem.Block, access perm.Access, arrive sim.Time) {
	add(g.mPass, 1)
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
		if g.host.putS == none {
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
	g.serial++
	*t = accelTxn{serial: g.serial, kind: kind, start: g.eng.Now(), arrive: arrive}
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

// granted is called when the host satisfies a get (collect); data (nil
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
	ty := [...]coherence.MsgType{GrantS: coherence.ADataS, GrantE: coherence.ADataE, GrantM: coherence.ADataM}[accelLevel]
	if t.kind == coherence.AGetM {
		ty = coherence.ADataM
	}
	g.mCrossing.Observe(float64(g.eng.Now() - t.start))
	g.emit(obs.Event{Kind: obs.KindGrant, Addr: addr, Msg: ty, To: g.accel, Span: t.span, Payload: accelLevel.String()})
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

func (g *Guard) stamp(m *coherence.Msg) { m.Epoch = g.Epoch }

// Outstanding reports open guard transactions (accelerator transactions,
// recalls, host gets and writebacks) and parked requests (for deadlock
// detection: a parked request has no engine event of its own).
func (g *Guard) Outstanding() int {
	return g.count(hasTxn) + g.count(hasRecall) + g.count(hasGet) + g.count(hasPut) + int(g.Parked-g.Woken)
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
	for _, l := range g.inspected(isResident) {
		fn(l.addr, l.accel, l.host, l.copy != nil)
	}
}

// Coverage reports the cells of the guard's table its messages visited.
func (g *Guard) Coverage() *coherence.Coverage { return g.cov }

// HostCoverage reports the cells of its host's table the host's messages
// visited.
func (g *Guard) HostCoverage() *coherence.Coverage { return g.hostCov }

// Resident reports whether the Full State table holds addr's line.
func (g *Guard) Resident(addr mem.Addr) bool { return g.lines[addr] != nil && g.lines[addr].resident }

// TableEntries reports the Full State table occupancy (0 for
// Transactional).
func (g *Guard) TableEntries() int { return g.count(isResident) }
