package accel

import (
	"fmt"
	"math/rand"
	"strings"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// AdvModel selects an adversarial (Byzantine) accelerator behavior for
// chaos testing. Unlike the fuzz attacker — which sprays uniformly random
// messages — each model is a *plausible* failure mode: a wedged device, a
// runaway DMA engine, a cache returning stale data, firmware replaying
// the wrong response, or a device that is merely too slow. The guard must
// uphold Guarantees 0a-2c against every one of them.
type AdvModel int

const (
	// AdvSilent acquires lines correctly, then goes permanently dark:
	// it never answers Invalidate (a hung device; forces 2c timeouts).
	AdvSilent AdvModel = iota
	// AdvBabbler floods requests with no regard for open transactions
	// (a runaway request engine; forces G1b and the rate limiter).
	AdvBabbler
	// AdvStaleWriter acquires ownership and answers recalls with stale,
	// scrambled data (a broken cache; Full State cannot make an owner's
	// data honest, only keep it inside the accelerator's own pages).
	AdvStaleWriter
	// AdvConfused answers Invalidate with random interface messages and
	// volunteers responses nothing asked for (firmware replaying the
	// wrong packet; forces 2a/2b validation).
	AdvConfused
	// AdvSlowpoke behaves correctly but answers Invalidate only after
	// the 2c deadline has passed (a too-slow device; its late responses
	// race the watchdog and retries).
	AdvSlowpoke
	// AdvFlapper behaves correctly, then bursts guarantee violations
	// (stray responses nothing asked for) until the guard fences it,
	// then behaves correctly again — repeated Flaps times. It is the
	// recovery protocol's canonical customer: a device that deserves
	// readmission a bounded number of times, and permanent quarantine
	// after that.
	AdvFlapper
	// AdvIdle answers Invalidate with a correct ack and initiates
	// nothing at all: a slot with no device in it. Containment proofs
	// substitute it for a misbehaving device to obtain the "device never
	// existed" baseline.
	AdvIdle

	numAdvModels
)

var advModelNames = [numAdvModels]string{"silent", "babbler", "stalewriter", "confused", "slowpoke",
	"flapper", "idle"}

// String returns the spec token for the model (e.g. "babbler").
func (m AdvModel) String() string {
	if m >= 0 && int(m) < len(advModelNames) {
		return advModelNames[m]
	}
	return fmt.Sprintf("AdvModel(%d)", int(m))
}

// ParseAdvModel parses a model name as produced by String.
func ParseAdvModel(s string) (AdvModel, error) {
	for i, n := range advModelNames {
		if s == n {
			return AdvModel(i), nil
		}
	}
	return 0, fmt.Errorf("accel: unknown adversary model %q (want %s)",
		s, strings.Join(advModelNames[:], "|"))
}

// AllAdvModels lists every adversary model the chaos sweep cycles, in
// sweep order. AdvFlapper and AdvIdle are deliberately excluded: the
// flapper only makes sense with recovery enabled (the recovery sweep
// covers it) and the idle model is a containment-baseline prop, so the
// historical chaos matrix is unchanged.
var AllAdvModels = []AdvModel{AdvSilent, AdvBabbler, AdvStaleWriter, AdvConfused, AdvSlowpoke}

// AdvConfig parameterizes an Adversary.
type AdvConfig struct {
	Model AdvModel
	// Seed drives every random choice; same seed, same behavior.
	Seed int64
	// Pool is the address set the adversary works over.
	Pool []mem.Addr
	// VictimPool is merged into the attack pool: blocks another
	// accelerator (or the host) is expected to hold, so a multi-device
	// machine exercises cross-accelerator recalls and ownership races.
	// Empty VictimPool leaves behavior byte-identical to a plain Pool.
	VictimPool []mem.Addr
	// Budget bounds self-initiated sends so the engine always drains;
	// responses to Invalidate are not budgeted (they are bounded by the
	// host's own recall traffic).
	Budget int
	// Gap is the maximum tick gap between self-initiated actions.
	Gap sim.Time
	// Deadline is the guard's 2c timeout, which AdvSlowpoke deliberately
	// overshoots (answering at Deadline + Deadline/2).
	Deadline sim.Time
	// Flaps is the number of violation bursts AdvFlapper fires before
	// settling down for good (default 1). Other models ignore it.
	Flaps int
	// BurstLen is the number of stray responses per AdvFlapper burst
	// (default 32 — comfortably past typical QuarantineAfter settings).
	BurstLen int
	// FlapGap is the number of well-behaved steps AdvFlapper takes
	// between bursts (default 40), giving the guard time to drain,
	// reset, and readmit the device before it misbehaves again.
	FlapGap int
}

// Adversary is a Byzantine accelerator endpoint implementing one
// AdvModel. It is deliberately not a cache: it keeps just enough state
// (open transaction, lines it believes it holds) to misbehave in a
// model-specific, deterministic way. Plug it into a machine via
// config.Spec.CustomAccel.
type Adversary struct {
	id  coherence.NodeID
	xg  coherence.NodeID
	eng *sim.Engine
	fab *network.Fabric
	rng *rand.Rand
	cfg AdvConfig

	pool []mem.Addr // Pool followed by VictimPool

	open     map[mem.Addr]coherence.MsgType // self-initiated open transactions
	held     map[mem.Addr]*mem.Block        // lines granted to us (data as granted)
	stale    map[mem.Addr]*mem.Block        // first data ever seen per line (AdvStaleWriter)
	dark     bool                           // AdvSilent has stopped answering
	acquired int                            // lines acquired so far (AdvSilent goes dark after a few)

	// epoch is the guard epoch this device currently operates under (0
	// until the first reset). Stamped on every send; guard messages from
	// another epoch are stale stragglers and are dropped.
	epoch uint32

	// AdvFlapper phase state: bursts fired so far, stray sends left in
	// the current burst, and well-behaved steps since the last burst.
	flapsDone    int
	burstLeft    int
	correctSteps int

	// left is the self-initiated steps still to take and stepEv the step
	// event, bound once; replies are the recall responses waiting out their
	// delay. A step or a reply schedules no closure.
	left    int
	stepEv  sim.Timed
	replies sim.Deferred[advReply]

	// Sent counts self-initiated messages; Grants / WBAcks / Invs /
	// Nacks count guard traffic observed; StaleDrops counts guard
	// messages dropped for carrying an outdated epoch; Resets counts
	// device reinitializations.
	Sent, Grants, WBAcks, Invs, Nacks, StaleDrops, Resets uint64
}

// NewAdversary builds and registers an adversary as the accelerator node
// facing guard xg.
func NewAdversary(id, xg coherence.NodeID, eng *sim.Engine, fab *network.Fabric, cfg AdvConfig) *Adversary {
	if len(cfg.Pool) == 0 {
		panic("accel: adversary needs a non-empty address pool")
	}
	if cfg.Gap <= 0 {
		cfg.Gap = 10
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 1000
	}
	pool := make([]mem.Addr, 0, len(cfg.Pool)+len(cfg.VictimPool))
	pool = append(append(pool, cfg.Pool...), cfg.VictimPool...)
	a := &Adversary{
		id: id, xg: xg, eng: eng, fab: fab,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		cfg:   cfg,
		pool:  pool,
		open:  make(map[mem.Addr]coherence.MsgType),
		held:  make(map[mem.Addr]*mem.Block),
		stale: make(map[mem.Addr]*mem.Block),
	}
	fab.Register(a)
	a.left = cfg.Budget
	a.stepEv.Fn = a.step
	a.replies.Bind(eng, a.sendReply)
	a.eng.ScheduleEvent(1, &a.stepEv)
	return a
}

// ID implements coherence.Controller.
func (a *Adversary) ID() coherence.NodeID { return a.id }

// Name implements coherence.Controller.
func (a *Adversary) Name() string { return "adv." + a.cfg.Model.String() }

// Outstanding always reports zero: an adversary's "transactions" must
// never hold the harness's drain check hostage (the host-side health
// checks are what chaos runs assert on).
func (a *Adversary) Outstanding() int { return 0 }

// Reset reinitializes the device under a new guard epoch (the recovery
// protocol's device-reset step): every line and open transaction is
// forgotten and the model's phase state is cleared — except the flapper's
// flap count, which is the device's lifetime pathology, not cache state.
func (a *Adversary) Reset(epoch uint32) {
	a.epoch = epoch
	a.Resets++
	a.open = make(map[mem.Addr]coherence.MsgType)
	a.held = make(map[mem.Addr]*mem.Block)
	a.stale = make(map[mem.Addr]*mem.Block)
	a.dark = false
	a.acquired = 0
	a.burstLeft = 0
	a.correctSteps = 0
}

// Recv implements coherence.Controller.
func (a *Adversary) Recv(m *coherence.Msg) {
	if m.Epoch != a.epoch {
		// A guard message from before our reset (or after a reset we have
		// not been told about yet): stale, drop it.
		a.StaleDrops++
		return
	}
	addr := m.Addr.Line()
	switch m.Type {
	case coherence.ADataS, coherence.ADataE, coherence.ADataM:
		a.Grants++
		delete(a.open, addr)
		var blk mem.Block
		if m.Data != nil {
			blk = *m.Data
		}
		a.held[addr] = &blk
		if _, ok := a.stale[addr]; !ok {
			cp := blk
			a.stale[addr] = &cp
		}
	case coherence.AWBAck:
		a.WBAcks++
		delete(a.open, addr)
		delete(a.held, addr)
	case coherence.AInv:
		a.Invs++
		a.answerInv(addr)
	case coherence.ANack:
		// Quarantined: the guard refuses service. Close the transaction
		// the nack answers so our bookkeeping cannot grow without bound.
		a.Nacks++
		delete(a.open, addr)
	}
}

// step is the self-initiated driver: one action, then reschedule until
// the budget is spent. Every model keeps the gap deterministic in
// [1, Gap].
func (a *Adversary) step() {
	if a.left <= 0 {
		return
	}
	switch a.cfg.Model {
	case AdvSilent:
		a.stepAcquire(3)
	case AdvBabbler:
		a.stepBabble()
	case AdvStaleWriter:
		a.stepStaleWriter()
	case AdvConfused:
		a.stepConfused()
	case AdvSlowpoke:
		a.stepCorrect()
	case AdvFlapper:
		a.stepFlapper()
	case AdvIdle:
		// Nothing: an idle slot initiates no traffic at all.
	}
	gap := sim.Time(a.rng.Int63n(int64(a.cfg.Gap))) + 1
	a.left--
	a.eng.ScheduleEvent(gap, &a.stepEv)
}

// stepFlapper alternates phases: behave correctly, then burst stray
// responses (each one a G2b violation at the guard) until the quarantine
// policy fences us, then behave again once readmitted — Flaps times in
// total, after which the device is permanently well-behaved. Whether it
// is permanently *readmitted* is the guard's call (its readmission budget).
func (a *Adversary) stepFlapper() {
	if a.burstLeft > 0 {
		a.burstLeft--
		a.send(coherence.AInvAck, a.pick(), nil, false)
		return
	}
	flaps := a.cfg.Flaps
	if flaps <= 0 {
		flaps = 1
	}
	gapSteps := a.cfg.FlapGap
	if gapSteps <= 0 {
		gapSteps = 40
	}
	if a.flapsDone < flaps && a.correctSteps >= gapSteps {
		burst := a.cfg.BurstLen
		if burst <= 0 {
			burst = 32
		}
		a.flapsDone++
		a.correctSteps = 0
		a.burstLeft = burst
		return
	}
	a.correctSteps++
	a.stepCorrect()
}

// stepAcquire issues correct Get requests (one open transaction per line,
// never for a line already held) until `quota` lines are acquired, then
// goes dark: AdvSilent's pathology is what it *stops* doing.
func (a *Adversary) stepAcquire(quota int) {
	if a.acquired >= quota {
		a.dark = true
		return
	}
	addr := a.pick()
	if _, open := a.open[addr]; open {
		return
	}
	if _, have := a.held[addr]; have {
		return
	}
	ty := coherence.AGetS
	if a.rng.Intn(2) == 0 {
		ty = coherence.AGetM
	}
	a.open[addr] = ty
	a.acquired++
	a.send(ty, addr, nil, false)
}

// stepBabble fires a random request regardless of open transactions —
// including repeated requests for the same line (G1b) and data-less Puts
// (G1 hygiene).
func (a *Adversary) stepBabble() {
	types := [...]coherence.MsgType{coherence.AGetS, coherence.AGetM,
		coherence.APutM, coherence.APutE, coherence.APutS}
	ty := types[a.rng.Intn(len(types))]
	var blk mem.Block
	var data *mem.Block
	if ty.CarriesData() && a.rng.Intn(4) != 0 {
		blk, data = a.randomBlock(), &blk
	}
	a.send(ty, a.pick(), data, ty == coherence.APutM)
}

// stepStaleWriter acquires ownership like a correct cache, but also
// volunteers PutM writebacks carrying scrambled stale data.
func (a *Adversary) stepStaleWriter() {
	addr := a.pick()
	if _, open := a.open[addr]; open {
		return
	}
	if _, have := a.held[addr]; !have {
		a.open[addr] = coherence.AGetM
		a.send(coherence.AGetM, addr, nil, false)
		return
	}
	a.open[addr] = coherence.APutM
	blk := a.staleBlock(addr)
	a.send(coherence.APutM, addr, &blk, true)
	delete(a.held, addr)
}

// stepConfused volunteers responses nothing asked for (G2b) mixed with
// ordinary requests it immediately forgets about.
func (a *Adversary) stepConfused() {
	addr := a.pick()
	var blk mem.Block
	switch a.rng.Intn(4) {
	case 0:
		a.send(coherence.AInvAck, addr, nil, false)
	case 1:
		blk = a.randomBlock()
		a.send(coherence.ADirtyWB, addr, &blk, true)
	case 2:
		blk = a.randomBlock()
		a.send(coherence.ACleanWB, addr, &blk, false)
	default:
		// A request it will never track: later grants/acks find no open
		// transaction on our side, and a duplicate request trips G1b.
		a.send(coherence.AGetS, addr, nil, false)
	}
}

// stepCorrect is a well-behaved request engine: acquire lines one
// transaction at a time, occasionally write them back properly.
// AdvSlowpoke uses it — its only sin is latency on the response path.
func (a *Adversary) stepCorrect() {
	addr := a.pick()
	if _, open := a.open[addr]; open {
		return
	}
	if blk, have := a.held[addr]; have {
		if a.rng.Intn(2) == 0 {
			a.open[addr] = coherence.APutM
			a.send(coherence.APutM, addr, blk, true)
			delete(a.held, addr)
		}
		return
	}
	ty := coherence.AGetS
	if a.rng.Intn(2) == 0 {
		ty = coherence.AGetM
	}
	a.open[addr] = ty
	a.send(ty, addr, nil, false)
}

// answerInv is each model's response to a host recall.
func (a *Adversary) answerInv(addr mem.Addr) {
	switch a.cfg.Model {
	case AdvSilent:
		if a.dark {
			return // the whole point
		}
		a.respond(coherence.AInvAck, addr, nil, false, 0)
	case AdvBabbler:
		// Too busy babbling to answer.
		return
	case AdvStaleWriter:
		delete(a.held, addr)
		blk := a.staleBlock(addr)
		a.respond(coherence.ADirtyWB, addr, &blk, true, 0)
	case AdvConfused:
		delete(a.held, addr)
		types := [...]coherence.MsgType{coherence.AInvAck, coherence.ACleanWB,
			coherence.ADirtyWB, coherence.AGetM}
		ty := types[a.rng.Intn(len(types))]
		var blk mem.Block
		var data *mem.Block
		if ty.CarriesData() {
			blk, data = a.randomBlock(), &blk
		}
		a.respond(ty, addr, data, ty == coherence.ADirtyWB, 0)
	case AdvSlowpoke:
		// The correct response, at exactly the wrong time: past the 2c
		// deadline, racing the watchdog's substitute answer.
		late := a.cfg.Deadline + a.cfg.Deadline/2
		if blk, have := a.held[addr]; have {
			delete(a.held, addr)
			a.respond(coherence.ADirtyWB, addr, blk, true, late)
		} else {
			a.respond(coherence.AInvAck, addr, nil, false, late)
		}
	case AdvFlapper:
		// Correct recall handling in every phase: the flapper's sin is
		// its bursts, not its responses.
		if blk, have := a.held[addr]; have {
			delete(a.held, addr)
			a.respond(coherence.ADirtyWB, addr, blk, true, 0)
		} else {
			a.respond(coherence.AInvAck, addr, nil, false, 0)
		}
	case AdvIdle:
		a.respond(coherence.AInvAck, addr, nil, false, 0)
	}
}

// respond sends a recall response after delay (0 = next tick). Responses
// are not budgeted: they are bounded by the host's recall traffic. The
// epoch is captured now, not at fire time: a reply to a pre-reset
// Invalidate that lands after reintegration must carry the old epoch so
// the guard drops it as a stale straggler instead of charging the fresh
// device with G2b.
func (a *Adversary) respond(ty coherence.MsgType, addr mem.Addr, data *mem.Block, dirty bool, delay sim.Time) {
	if delay <= 0 {
		delay = 1
	}
	a.replies.After(delay, a.reply(ty, addr, data, dirty))
}

// advReply is one message to the guard: sent at once, or a recall response
// waiting out its delay. It carries its block by value — what the adversary
// forges is content, and the message it goes out in is the pool's.
type advReply struct {
	ty      coherence.MsgType
	addr    mem.Addr
	data    mem.Block
	hasData bool
	dirty   bool
	epoch   uint32
}

func (a *Adversary) reply(ty coherence.MsgType, addr mem.Addr, data *mem.Block, dirty bool) advReply {
	r := advReply{ty: ty, addr: addr, hasData: data != nil, dirty: dirty, epoch: a.epoch}
	if data != nil {
		r.data = *data
	}
	return r
}

func (a *Adversary) send(ty coherence.MsgType, addr mem.Addr, data *mem.Block, dirty bool) {
	a.sendReply(a.reply(ty, addr, data, dirty))
}

func (a *Adversary) sendReply(r advReply) {
	a.Sent++
	m := a.fab.Msg(coherence.Msg{Type: r.ty, Addr: r.addr, Src: a.id, Dst: a.xg, Dirty: r.dirty, Epoch: r.epoch})
	if r.hasData { // copied in here: a block named in the template would escape to the heap
		*m.OwnData() = r.data
	}
	a.fab.Send(m)
}

func (a *Adversary) pick() mem.Addr {
	return a.pool[a.rng.Intn(len(a.pool))].Line()
}

// staleBlock returns deliberately wrong data for addr: the first value
// ever observed for the line, scrambled further so it can never pass for
// current.
func (a *Adversary) staleBlock(addr mem.Addr) mem.Block {
	var blk mem.Block
	if old, ok := a.stale[addr]; ok {
		blk = *old
	}
	blk[int(addr)%mem.BlockBytes] ^= 0xA5
	return blk
}

func (a *Adversary) randomBlock() (b mem.Block) {
	a.rng.Read(b[:])
	return b
}
