// Package fuzz implements the paper's safety evaluation (§4.2): a
// pathological accelerator that "bombards the Crossing Guard with a
// stream of random coherence messages to random addresses", plus a
// scriptable adversary used to violate each guarantee clause on purpose.
// The paper's claim under test: "this fuzz testing never leads to a crash
// or deadlock" of the host, no matter what the accelerator does.
package fuzz

import (
	"math/rand"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// InvPolicy selects how the attacker answers Invalidate requests.
type InvPolicy int

const (
	// InvRandom answers with a random choice of InvAck / CleanWB /
	// DirtyWB / silence.
	InvRandom InvPolicy = iota
	// InvIgnore never answers (forces Guarantee 2c timeouts).
	InvIgnore
	// InvAckAlways answers InvAck regardless of state (Guarantee 2a).
	InvAckAlways
	// InvWBAlways answers DirtyWB regardless of state (Guarantee 2a).
	InvWBAlways
	// InvCorrectAck answers InvAck promptly (a block-less accelerator's
	// correct behavior).
	InvCorrectAck
)

// Attacker is a malicious/broken accelerator endpoint. It never keeps
// protocol state: it just emits whatever its configuration says.
type Attacker struct {
	ID_  coherence.NodeID
	XG   coherence.NodeID
	Eng  *sim.Engine
	Fab  *network.Fabric
	Rng  *rand.Rand
	Pool []mem.Addr

	// Policy for host-initiated Invalidates.
	Policy InvPolicy
	// Epoch is stamped on every injected message. It starts at zero (the
	// pre-recovery guard epoch, so historical attack traffic is
	// unchanged); scripted recovery scenarios bump it from a device-reset
	// hook so the attacker rejoins the guard after reintegration instead
	// of having everything it sends dropped as a stale straggler.
	Epoch uint32
	// IncludeHostTypes also injects raw host-protocol message types,
	// probing the guard's interface boundary.
	IncludeHostTypes bool
	// NilDataProb makes data-bearing messages malformed (nil payload).
	NilDataProb float64

	// Sent counts injected messages; Grants counts data grants received
	// (the guard still answers well-formed requests).
	Sent, Grants, Invs, WBAcks uint64

	// The rampage in progress: messages still to send, the gap bound, and
	// the firing event, bound once.
	left   int
	maxGap sim.Time
	fireEv sim.Timed
}

// NewAttacker builds and registers an attacker as the accelerator node.
func NewAttacker(id, xg coherence.NodeID, eng *sim.Engine, fab *network.Fabric,
	seed int64, pool []mem.Addr) *Attacker {
	a := new(Attacker)
	a.Init(id, xg, eng, fab, seed, pool)
	return a
}

// Init makes a the attacker NewAttacker(id, xg, eng, fab, seed, pool)
// would build and registers it, keeping its firing event: a machine that
// is reset in place reconfigures its attackers this way for the next run,
// after its engine and fabric were reset. The attacker keeps pool, which
// its caller must not change.
func (a *Attacker) Init(id, xg coherence.NodeID, eng *sim.Engine, fab *network.Fabric, seed int64, pool []mem.Addr) {
	*a = Attacker{
		ID_: id, XG: xg, Eng: eng, Fab: fab,
		Rng: eng.Rand(seed), Pool: pool,
		fireEv: a.fireEv,
	}
	fab.Register(a)
}

// ID implements coherence.Controller.
func (a *Attacker) ID() coherence.NodeID { return a.ID_ }

// Name implements coherence.Controller.
func (a *Attacker) Name() string { return "attacker" }

// Recv implements coherence.Controller: the attacker sees grants and
// invalidations and (mis)behaves per its policy.
func (a *Attacker) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ADataS, coherence.ADataE, coherence.ADataM:
		a.Grants++
	case coherence.AWBAck:
		a.WBAcks++
	case coherence.AInv:
		a.Invs++
		a.answerInv(m)
	}
}

func (a *Attacker) answerInv(m *coherence.Msg) {
	policy := a.Policy
	if policy == InvRandom {
		policy = []InvPolicy{InvIgnore, InvAckAlways, InvWBAlways, InvCorrectAck}[a.Rng.Intn(4)]
	}
	switch policy {
	case InvIgnore:
		return
	case InvAckAlways, InvCorrectAck:
		a.send(coherence.AInvAck, m.Addr, nil, false)
	case InvWBAlways:
		blk := a.randomBlock()
		a.send(coherence.ADirtyWB, m.Addr, &blk, true)
	}
}

// send emits one message to the guard: what the attacker forges is
// content, and the message it goes out in — with its copy of data — is the
// machine pool's. The copy is made here, not by naming data in the
// template, which would move the caller's stack block to the heap.
func (a *Attacker) send(ty coherence.MsgType, addr mem.Addr, data *mem.Block, dirty bool) {
	a.Sent++
	m := a.Fab.Msg(coherence.Msg{Type: ty, Addr: addr, Src: a.ID_, Dst: a.XG, Dirty: dirty, Epoch: a.Epoch})
	if data != nil {
		*m.OwnData() = *data
	}
	a.Fab.Send(m)
}

// Send exposes raw injection for the scripted guarantee tests.
func (a *Attacker) Send(ty coherence.MsgType, addr mem.Addr, data *mem.Block) {
	dirty := ty == coherence.APutM || ty == coherence.ADirtyWB
	a.send(ty, addr, data, dirty)
}

func (a *Attacker) randomAddr() mem.Addr {
	return a.Pool[a.Rng.Intn(len(a.Pool))]
}

func (a *Attacker) randomBlock() (b mem.Block) {
	a.Rng.Read(b[:])
	return b
}

// The vocabularies a rampage draws from.
var (
	accelTypes = [...]coherence.MsgType{
		coherence.AGetS, coherence.AGetM, coherence.APutM, coherence.APutE,
		coherence.APutS, coherence.AInvAck, coherence.ACleanWB, coherence.ADirtyWB,
	}
	hostTypes = [...]coherence.MsgType{
		coherence.HGetM, coherence.HData, coherence.HNack, coherence.HWBData,
		coherence.MGetM, coherence.MInvAck, coherence.MCopyToL2, coherence.MUnblock,
	}
)

// Rampage schedules count random messages with gaps in [1, maxGap].
// Messages cover the full accelerator vocabulary (requests AND responses,
// valid or not for the current state) and, optionally, raw host-protocol
// types the interface boundary must reject. An attacker runs one rampage at
// a time.
func (a *Attacker) Rampage(count int, maxGap sim.Time) {
	if a.left != 0 {
		panic("fuzz: Rampage while one is still running")
	}
	if count < 0 {
		panic("fuzz: Rampage of a negative message count")
	}
	a.left, a.maxGap = count, maxGap
	if a.fireEv.Fn == nil {
		a.fireEv.Fn = a.fire
	}
	a.Eng.ScheduleEvent(1, &a.fireEv)
}

// fire sends one message of the rampage and schedules the next.
func (a *Attacker) fire() {
	if a.left == 0 {
		return
	}
	ty := accelTypes[a.Rng.Intn(len(accelTypes))]
	if a.IncludeHostTypes && a.Rng.Float64() < 0.15 {
		ty = hostTypes[a.Rng.Intn(len(hostTypes))]
	}
	var blk mem.Block
	var data *mem.Block
	if ty.CarriesData() && a.Rng.Float64() >= a.NilDataProb {
		blk, data = a.randomBlock(), &blk
	}
	a.send(ty, a.randomAddr(), data, ty == coherence.APutM || ty == coherence.ADirtyWB)
	a.left--
	a.Eng.ScheduleEvent(sim.Time(a.Rng.Int63n(int64(a.maxGap))+1), &a.fireEv)
}
