package core

import (
	"fmt"

	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// Quarantine recovery (reset & reintegration): once the quarantine
// policy has fenced a device and resolved its open recalls from trusted
// state, an enabled recovery policy (Config.RecoverAfter > 0) brings the
// device back instead of leaving it dead for the rest of the run:
//
//	fence -> backoff -> drain -> device reset -> reintegrate
//
// Backoff waits RecoverAfter ticks, doubled for every prior readmission,
// so a flapping device is readmitted ever more reluctantly and, after
// maxRecoveries readmissions, not at all. Drain waits for every in-flight
// transaction to settle and returns every line the host still believes
// this guard holds (writeback of the trusted copy, or the zero-block
// Guarantee 2c substitution, for owned lines; PutS or silent drop for
// shared ones). Reset reinitializes the accelerator hierarchy through the
// installed reset hook under a bumped guard epoch. Reintegration reopens
// the guard with an empty block table and a zero error score; stragglers
// from before the reset are rejected as XG.StaleEpoch by the epoch check
// in Recv.

// recoveryPoll is the drain-phase polling cadence: while transactions
// are still settling, the recovery machine re-checks every this many
// ticks. Purely a simulation-time constant, so recovery timing is
// deterministic.
const recoveryPoll sim.Time = 16

// maxRecoveries is the readmission budget: once a device has been
// readmitted this many times, its next quarantine is permanent (a flapping
// device converges to a fenced one).
const maxRecoveries = 3

// recoverDelay is the exponential backoff before the next readmission
// attempt: RecoverAfter, doubled for every earlier readmission.
func (g *Guard) recoverDelay() sim.Time { return g.cfg.RecoverAfter << g.recoveries }

// recoveryEvent emits one KindRecovery trace event (nil-safe: quiet when
// no bus is attached).
func (g *Guard) recoveryEvent(addr mem.Addr, payload string) {
	if b := g.fab.Bus; b.Active() {
		b.Emit(obs.Event{
			Tick: g.eng.Now(), Component: g.name, Kind: obs.KindRecovery,
			Addr: addr, Accel: g.accelTag, Payload: payload,
		})
	}
}

// scheduleRecovery runs at the tail of enterQuarantine: with recovery
// disabled (RecoverAfter == 0, the default) it does nothing and
// quarantine stays terminal; otherwise it either arms the backed-off
// readmission attempt or, with the budget exhausted, converts this
// quarantine to a permanent one.
func (g *Guard) scheduleRecovery(addr mem.Addr) {
	if g.cfg.RecoverAfter <= 0 || g.recovering || g.permanent {
		return
	}
	if g.recoveries >= maxRecoveries {
		g.permanent = true
		g.obsReg.Counter("guard.recovery.permanent").Inc()
		g.obsReg.Counter("guard.recovery.permanent" + g.metricSuffix()).Inc()
		g.recoveryEvent(addr, fmt.Sprintf("permanent quarantine after %d recoveries", g.recoveries))
		return
	}
	delay := g.recoverDelay()
	g.recovering = true
	g.obsReg.Counter("guard.recovery.backoff").Inc()
	g.obsReg.Counter("guard.recovery.backoff" + g.metricSuffix()).Inc()
	g.recoveryEvent(addr, fmt.Sprintf("recovery %d/%d scheduled, backoff %d ticks",
		g.recoveries+1, maxRecoveries, uint64(delay)))
	if g.cfg.Spans {
		g.recoverySpan = g.newSpanID()
		g.recoveryStart = g.eng.Now()
		g.recoveryMark = g.recoveryStart
		g.spanEvent(obs.KindSpanBegin, g.recoverySpan, addr, 0,
			fmt.Sprintf("recovery %d/%d", g.recoveries+1, maxRecoveries))
	}
	g.eng.Schedule(delay, func() {
		g.recoveryPhase("backoff")
		g.recoveryWhenIdle(g.recoveryDrainTable)
	})
}

// recoveryPhase marks the end of one recovery-span phase ("backoff",
// "drain"): the elapsed ticks since the previous phase boundary feed the
// xg.span.recovery.<phase>.ticks histograms and a span-phase event is
// emitted. No-op outside an open recovery span.
func (g *Guard) recoveryPhase(ended string) {
	if !g.cfg.Spans || g.recoverySpan == 0 {
		return
	}
	now := g.eng.Now()
	name := "xg.span.recovery." + ended + ".ticks"
	g.obsReg.Histogram(name).Observe(float64(now - g.recoveryMark))
	g.obsReg.Histogram(name + g.metricSuffix()).Observe(float64(now - g.recoveryMark))
	g.recoveryMark = now
	g.spanEvent(obs.KindSpanPhase, g.recoverySpan, 0, 0, ended)
}

// recoveryWhenIdle polls until nothing is outstanding, then runs next.
// Before the table flush that is every in-flight transaction settling:
// open accelerator transactions close as their host halves complete
// (granted/putDone run their quarantine paths), requests parked behind
// them are woken and run to their own end, open recalls were resolved by
// the fence, and the host gets and writebacks retire — otherwise a
// straggling grant could repopulate the table after the flush walked it.
// Before the reset it is the drain's writebacks retiring (and any request
// that parked behind one being woken).
func (g *Guard) recoveryWhenIdle(next func()) {
	if g.Outstanding() > 0 {
		g.eng.Schedule(recoveryPoll, func() { g.recoveryWhenIdle(next) })
		return
	}
	next()
}

// recoveryDrainTable returns every line the host still believes this
// guard holds. Owned lines (host view E/M) must carry data back: the
// trusted copy when Full State kept one, else the zero-block Guarantee
// 2c substitution (the fenced accelerator cannot be asked). Shared lines
// need only an eviction notice, and only on hosts that track sharers.
// Lines are walked in address order so the drain's message sequence is
// deterministic.
func (g *Guard) recoveryDrainTable() {
	lines := g.sortedLines(isResident)
	for _, e := range lines {
		a := e.addr
		if e.host == GrantS {
			if !g.shim.suppressPutS() {
				g.shim.putS(a)
			}
		} else {
			data, dirty := &zeroBlock, true
			if e.copy != nil {
				data, dirty = e.copy, e.dirty
			}
			g.relinquish(a, data, dirty)
		}
		g.drop(a)
	}
	g.obsReg.Counter("guard.recovery.drained_lines").Add(uint64(len(lines)))
	g.obsReg.Counter("guard.recovery.drained_lines" + g.metricSuffix()).Add(uint64(len(lines)))
	g.recoveryEvent(0, fmt.Sprintf("drain flushed %d lines", len(lines)))
	g.recoveryPhase("drain")
	g.recoveryWhenIdle(g.reintegrate)
}

// reintegrate is the reset + readmission step: the guard epoch is
// bumped, the device hierarchy is reinitialized to Invalid under the new
// epoch through the reset hook, and the guard reopens conservatively —
// empty block table, no trusted copies claimed, zero error score. Any
// pre-reset straggler still in the fabric carries the old epoch and is
// dropped as XG.StaleEpoch on arrival.
func (g *Guard) reintegrate() {
	if g.parkedNow != 0 {
		// The table is emptied below; a request still parked in it would
		// be dropped and its sender hang silently.
		panic(fmt.Sprintf("%s: reintegrating with %d requests still parked", g.name, g.parkedNow))
	}
	g.epoch++
	g.recoveries++
	g.resetState()
	if g.resetHook != nil {
		g.resetHook(g.epoch)
	}
	g.Quarantined = false
	g.errors = 0
	g.recovering = false
	g.obsReg.Counter("guard.recovery.reintegrated").Inc()
	g.obsReg.Counter("guard.recovery.reintegrated" + g.metricSuffix()).Inc()
	g.recoveryEvent(0, fmt.Sprintf("device reset, reintegrated under epoch %d (recovery %d/%d)",
		g.epoch, g.recoveries, maxRecoveries))
	if g.cfg.Spans && g.recoverySpan != 0 {
		now := g.eng.Now()
		g.obsReg.Histogram("xg.span.recovery.reset.ticks").Observe(float64(now - g.recoveryMark))
		g.obsReg.Histogram("xg.span.recovery.reset.ticks" + g.metricSuffix()).Observe(float64(now - g.recoveryMark))
		g.obsReg.Histogram("xg.span.recovery.total.ticks").Observe(float64(now - g.recoveryStart))
		g.obsReg.Histogram("xg.span.recovery.total.ticks" + g.metricSuffix()).Observe(float64(now - g.recoveryStart))
		g.spanEvent(obs.KindSpanEnd, g.recoverySpan, 0, 0,
			fmt.Sprintf("reintegrated epoch %d", g.epoch))
		g.recoverySpan = 0
	}
}
