package accel

import (
	"fmt"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/sim"
)

func TestAdvModelStringRoundTrip(t *testing.T) {
	for _, m := range AllAdvModels {
		got, err := ParseAdvModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseAdvModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseAdvModel("gremlin"); err == nil {
		t.Error("unknown model accepted")
	}
}

// muteGuard swallows everything (a guard that never answers).
type muteGuard struct{ id coherence.NodeID }

func (g *muteGuard) ID() coherence.NodeID  { return g.id }
func (g *muteGuard) Name() string          { return "mute" }
func (g *muteGuard) Recv(m *coherence.Msg) {}

// stubGuard is a minimal guard-side endpoint: it grants every Get,
// acks every Put, and periodically recalls a line — enough traffic to
// exercise each adversary's request and response paths.
type stubGuard struct {
	id, accel coherence.NodeID
	eng       *sim.Engine
	fab       *network.Fabric
	log       []string
	recvd     int
}

func (s *stubGuard) ID() coherence.NodeID { return s.id }
func (s *stubGuard) Name() string         { return "stubguard" }
func (s *stubGuard) Recv(m *coherence.Msg) {
	s.log = append(s.log, fmt.Sprintf("%d:%v:%x", s.eng.Now(), m.Type, m.Addr))
	s.recvd++
	addr := m.Addr.Line()
	reply := func(ty coherence.MsgType, data *mem.Block) {
		s.fab.Send(&coherence.Msg{Type: ty, Addr: addr, Src: s.id, Dst: s.accel, Data: data})
	}
	switch m.Type {
	case coherence.AGetS:
		reply(coherence.ADataS, mem.Zero())
	case coherence.AGetM:
		reply(coherence.ADataM, mem.Zero())
	case coherence.APutM, coherence.APutE, coherence.APutS:
		reply(coherence.AWBAck, nil)
	}
	if s.recvd%5 == 0 {
		reply(coherence.AInv, nil)
	}
}

func runAdversary(model AdvModel, seed int64) (*Adversary, *stubGuard, sim.Time) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
	sg := &stubGuard{id: 40, accel: 200, eng: eng, fab: fab}
	fab.Register(sg)
	pool := make([]mem.Addr, 8)
	for i := range pool {
		pool[i] = mem.Addr(0x1000 + i*mem.BlockBytes)
	}
	adv := NewAdversary(200, 40, eng, fab, AdvConfig{
		Model: model, Seed: seed, Pool: pool, Budget: 60, Gap: 5, Deadline: 50,
	})
	end := eng.RunUntilQuiet()
	return adv, sg, end
}

// Every model's self-initiated traffic is budget-bounded: the engine
// always drains, and the adversary never holds the drain check hostage.
func TestAdversaryBudgetDrains(t *testing.T) {
	for _, m := range AllAdvModels {
		adv, sg, _ := runAdversary(m, 7)
		if adv.Sent == 0 {
			t.Errorf("%v: adversary sent nothing", m)
		}
		if sg.recvd == 0 {
			t.Errorf("%v: guard saw no traffic", m)
		}
		if adv.Outstanding() != 0 {
			t.Errorf("%v: Outstanding() = %d, want 0", m, adv.Outstanding())
		}
	}
}

// Same model, same seed, same peer: bit-identical message streams. The
// chaos campaign's replay guarantee depends on this.
func TestAdversaryDeterministic(t *testing.T) {
	for _, m := range AllAdvModels {
		_, sg1, end1 := runAdversary(m, 3)
		_, sg2, end2 := runAdversary(m, 3)
		if end1 != end2 || len(sg1.log) != len(sg2.log) {
			t.Fatalf("%v: runs diverged (end %d vs %d, msgs %d vs %d)",
				m, end1, end2, len(sg1.log), len(sg2.log))
		}
		for i := range sg1.log {
			if sg1.log[i] != sg2.log[i] {
				t.Fatalf("%v: message %d diverged: %q vs %q", m, i, sg1.log[i], sg2.log[i])
			}
		}
	}
}

// The self-initiated driver schedules no closure and forges content, not
// storage: a thousand steps of an idle slot allocate nothing once the
// engine's free list has filled, and neither does a recall response — it
// waits out its delay by value and goes out in a message from the machine's
// pool, which the guard's Recv gives back.
func TestAdversaryStepAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1})
	fab.Register(&muteGuard{id: 40})
	adv := NewAdversary(200, 40, eng, fab, AdvConfig{
		Model: AdvIdle, Seed: 1, Pool: []mem.Addr{0x1000}, Budget: 1 << 30, Gap: 1,
	})
	inv := &coherence.Msg{Type: coherence.AInv, Addr: 0x1000, Src: 40, Dst: 200}
	for _, invs := range []int{0, 4} {
		round := func() {
			before := eng.Executed
			for i := 0; i < invs; i++ {
				adv.Recv(inv) // answered one tick later
			}
			eng.RunUntil(eng.Now() + 1000) // Gap 1: one step per tick
			if steps := int(eng.Executed-before) - 2*invs; steps != 1000 {
				t.Fatalf("%d steps in 1000 ticks, want 1000", steps)
			}
		}
		round()
		if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
			t.Fatalf("1000 idle steps and %d recall responses allocated %v objects, want 0", invs, allocs)
		}
	}
}

// ANack closes the adversary's open transaction — its bookkeeping cannot
// grow without bound once the guard quarantines it.
func TestAdversaryNackClosesTransaction(t *testing.T) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1})
	// A guard that never answers: the Get stays open until nacked.
	fab.Register(&muteGuard{id: 40})
	adv := NewAdversary(200, 40, eng, fab, AdvConfig{
		Model: AdvSlowpoke, Seed: 1, Pool: []mem.Addr{0x1000}, Budget: 1, Gap: 1,
	})
	eng.RunUntilQuiet()
	if len(adv.open) != 1 {
		t.Fatalf("open transactions = %d, want 1", len(adv.open))
	}
	adv.Recv(&coherence.Msg{Type: coherence.ANack, Addr: 0x1000, Src: 40, Dst: 200})
	if adv.Nacks != 1 || len(adv.open) != 0 {
		t.Fatalf("Nacks=%d open=%d after ANack, want 1/0", adv.Nacks, len(adv.open))
	}
}
