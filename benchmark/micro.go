package main

import (
	"time"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// The micro drivers price the two layers every delivery passes through but
// no trace interval can isolate: the event kernel and the fabric. They are
// the benchmark's own loops over sim.Engine and network.Fabric, so the
// numbers survive the removal of internal/perfbench.

const (
	microEvents = 400_000
	microChains = 64
	microReps   = 3
)

// best is the fastest of microReps runs of a driver: the loops are short
// and deterministic, so whatever slows one down is the machine, not the
// layer being priced.
func best(driver func() float64) float64 {
	out := driver()
	for i := 1; i < microReps; i++ {
		out = min(out, driver())
	}
	return out
}

// engineNSPerEvent times ScheduleEvent + RunUntilQuiet over self-
// rescheduling timers with mixed delays (a heap of microChains entries).
func engineNSPerEvent() float64 {
	eng := sim.NewEngine()
	remaining := microEvents
	for i := 0; i < microChains; i++ {
		delay := sim.Time(i%7 + 1)
		t := &sim.Timed{}
		t.Fn = func() {
			if remaining > 0 {
				remaining--
				eng.ScheduleEvent(delay, t)
			}
		}
		eng.ScheduleEvent(delay, t)
	}
	t0 := time.Now()
	eng.RunUntilQuiet()
	return ratio(float64(time.Since(t0)), float64(eng.Executed))
}

// bouncer is a controller that does nothing but return each message to
// its peer until the shared budget runs out.
type bouncer struct {
	id        coherence.NodeID
	fab       *network.Fabric
	msg       *coherence.Msg
	remaining *int
}

func (b *bouncer) ID() coherence.NodeID { return b.id }
func (b *bouncer) Name() string         { return "bouncer" }
func (b *bouncer) Recv(*coherence.Msg) {
	if *b.remaining > 0 {
		*b.remaining--
		b.fab.Send(b.msg)
	}
}

// fabricNSPerSend times Fabric.Send + delivery between no-op controllers:
// the full per-message cost, the engine's event included.
func fabricNSPerSend() float64 {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 10, Jitter: 4, Ordered: true})
	fab.AttachObs(obs.NewRegistry())
	remaining := microEvents
	const pairs = microChains / 2
	var first []*bouncer
	for i := 0; i < pairs; i++ {
		a, b := coherence.NodeID(2*i+1), coherence.NodeID(2*i+2)
		for _, n := range [][2]coherence.NodeID{{a, b}, {b, a}} {
			c := &bouncer{id: n[0], fab: fab, remaining: &remaining,
				msg: &coherence.Msg{Type: coherence.HGetS, Src: n[0], Dst: n[1], Addr: 0x10000}}
			fab.Register(c)
			if n[0] == a {
				first = append(first, c)
			}
		}
	}
	for _, c := range first {
		fab.Send(c.msg)
	}
	t0 := time.Now()
	eng.RunUntilQuiet()
	return ratio(float64(time.Since(t0)), float64(eng.Executed))
}

// emitNSPerEvent calibrates what one traced event costs: building the
// obs.Event the way the fabric does, plus one pass through the sink.
func emitNSPerEvent() float64 {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1})
	b := &bouncer{id: 2, fab: fab}
	fab.Register(&bouncer{id: 1, fab: fab})
	fab.Register(b)
	s := newTraceSink()
	s.fab = fab
	bus := obs.NewBus(s)
	m := &coherence.Msg{Type: coherence.HData, Src: 1, Dst: 2, Addr: 0x10040, Requestor: 1, Data: &mem.Block{}}
	const n = 200_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if bus.Active() {
			bus.Emit(obs.MsgEvent(sim.Time(i), obs.KindSend, "net", m))
		}
		if bus.Active() {
			bus.Emit(obs.MsgEvent(sim.Time(i), obs.KindRecv, b.Name(), m))
		}
	}
	return float64(time.Since(t0)) / (2 * n)
}
