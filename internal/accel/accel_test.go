package accel

import (
	"fmt"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
)

// mockGuard is a minimal Crossing Guard standing in for the host: it
// grants every GetS with the configured type, every GetM with DataM, and
// acks every Put — enough to drive an accelerator cache through all of
// Table 1 deterministically.
type mockGuard struct {
	id    coherence.NodeID
	eng   *sim.Engine
	fab   *network.Fabric
	mem   *mem.Memory
	sGets coherence.MsgType // response type for GetS (DataS/DataE/DataM)

	gets, puts, putSs uint64
	invResps          []*coherence.Msg
	onInvResp         func() // called as each Invalidate response arrives, if set
}

func newMockGuard(id coherence.NodeID, eng *sim.Engine, fab *network.Fabric) *mockGuard {
	g := &mockGuard{id: id, eng: eng, fab: fab, mem: mem.NewMemory(), sGets: coherence.ADataS}
	fab.Register(g)
	return g
}

func (g *mockGuard) ID() coherence.NodeID { return g.id }
func (g *mockGuard) Name() string         { return "mockXG" }

func (g *mockGuard) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.AGetS:
		g.gets++
		g.fab.Send(&coherence.Msg{Type: g.sGets, Addr: m.Addr, Src: g.id, Dst: m.Src,
			Data: g.mem.Read(m.Addr)})
	case coherence.AGetM:
		g.gets++
		g.fab.Send(&coherence.Msg{Type: coherence.ADataM, Addr: m.Addr, Src: g.id, Dst: m.Src,
			Data: g.mem.Read(m.Addr)})
	case coherence.APutM, coherence.APutE:
		g.puts++
		if m.Data != nil {
			g.mem.Write(m.Addr, m.Data)
		}
		g.fab.Send(&coherence.Msg{Type: coherence.AWBAck, Addr: m.Addr, Src: g.id, Dst: m.Src})
	case coherence.APutS:
		g.putSs++
		g.fab.Send(&coherence.Msg{Type: coherence.AWBAck, Addr: m.Addr, Src: g.id, Dst: m.Src})
	case coherence.AInvAck, coherence.ACleanWB, coherence.ADirtyWB:
		m.Keep()
		g.invResps = append(g.invResps, m)
		if g.onInvResp != nil {
			g.onInvResp()
		}
		if m.Data != nil && m.Type == coherence.ADirtyWB {
			g.mem.Write(m.Addr, m.Data)
		}
	default:
		panic(fmt.Sprintf("mockXG: unexpected %v", m))
	}
}

// inv sends the interface's single host request.
func (g *mockGuard) inv(addr mem.Addr, dst coherence.NodeID) {
	g.fab.Send(&coherence.Msg{Type: coherence.AInv, Addr: addr, Src: g.id, Dst: dst})
}

type rig struct {
	eng   *sim.Engine
	fab   *network.Fabric
	xg    *mockGuard
	cache *L1Cache
	sq    *seq.Sequencer
}

func newRig(cfg Config, seed int64) *rig {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, seed, network.Config{Latency: 3, Ordered: true})
	xg := newMockGuard(1, eng, fab)
	c := NewL1Cache(2, "accelL1", fab, 1, cfg)
	sq := seq.New(3, "acc", eng, fab, 2, new(seq.OpList))
	return &rig{eng, fab, xg, c, sq}
}

func tinyCfg() Config {
	c := DefaultConfig()
	c.L1Sets, c.L1Ways = 2, 2
	return c
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	r.eng.RunUntilQuiet()
	if n := r.cache.Outstanding(); n != 0 {
		t.Fatalf("%d transactions outstanding", n)
	}
}

func TestLoadStoreBasics(t *testing.T) {
	r := newRig(tinyCfg(), 1)
	var got byte
	r.sq.Store(0x100, 42, nil)
	r.sq.Load(0x100, func(op *seq.Op) { got = op.Result })
	r.run(t)
	if got != 42 {
		t.Fatalf("loaded %d", got)
	}
	// Store took GetM (miss), load hit.
	if r.xg.gets != 1 {
		t.Fatalf("gets = %d, want 1", r.xg.gets)
	}
}

func TestSilentEUpgrade(t *testing.T) {
	r := newRig(tinyCfg(), 2)
	r.xg.sGets = coherence.ADataE
	r.sq.Load(0x100, nil)
	r.run(t)
	_, st, _ := r.cache.AuditLine(0x100)
	if st != AE {
		t.Fatalf("state after DataE = %v, want E", st)
	}
	r.sq.Store(0x100, 1, nil)
	r.run(t)
	_, st, _ = r.cache.AuditLine(0x100)
	if st != AM {
		t.Fatalf("state after store on E = %v, want M", st)
	}
	if r.xg.gets != 1 {
		t.Fatal("silent upgrade must not issue GetM")
	}
}

func TestExclusiveGrantOnGetS(t *testing.T) {
	// The interface allows DataM in response to GetS (paper §2.1).
	r := newRig(tinyCfg(), 3)
	r.xg.sGets = coherence.ADataM
	r.sq.Load(0x100, nil)
	r.run(t)
	_, st, _ := r.cache.AuditLine(0x100)
	if st != AM {
		t.Fatalf("state after DataM-on-GetS = %v, want M", st)
	}
}

func TestReplacementRowOfTable1(t *testing.T) {
	// M -> PutM, E -> PutE, S -> PutS, each entering B until WBAck.
	r := newRig(tinyCfg(), 4)
	r.xg.sGets = coherence.ADataE
	// Same set (2 sets => stride 128): 3 lines overflow 2 ways.
	r.sq.Store(0x000, 1, nil) // M
	r.sq.Load(0x080, nil)     // E
	r.run(t)
	r.sq.Load(0x100, nil) // evicts LRU (0x000, M) -> PutM
	r.run(t)
	if r.xg.puts != 1 {
		t.Fatalf("puts = %d, want 1 (PutM)", r.xg.puts)
	}
	// Verify the PutM data round-trips through the guard's memory.
	if got := r.xg.mem.LoadByte(0x000); got != 1 {
		t.Fatalf("PutM data lost: %d", got)
	}
	r.sq.Load(0x180, nil) // evicts (0x080, E) -> PutE
	r.run(t)
	if r.xg.puts != 2 {
		t.Fatalf("puts = %d, want 2 (PutE)", r.xg.puts)
	}
}

func TestPutSOnSharedEviction(t *testing.T) {
	r := newRig(tinyCfg(), 5)
	r.sq.Load(0x000, nil) // S (DataS default)
	r.run(t)
	r.sq.Load(0x080, nil)
	r.sq.Load(0x100, nil) // evict S -> PutS (the interface requires it)
	r.run(t)
	if r.xg.putSs != 1 {
		t.Fatalf("PutS count = %d, want 1", r.xg.putSs)
	}
}

func TestInvalidateColumnOfTable1(t *testing.T) {
	cases := []struct {
		name  string
		setup func(r *rig)
		want  coherence.MsgType
	}{
		{"M->DirtyWB", func(r *rig) { r.sq.Store(0x100, 7, nil) }, coherence.ADirtyWB},
		{"E->CleanWB", func(r *rig) { r.xg.sGets = coherence.ADataE; r.sq.Load(0x100, nil) }, coherence.ACleanWB},
		{"S->InvAck", func(r *rig) { r.sq.Load(0x100, nil) }, coherence.AInvAck},
		{"I->InvAck", func(r *rig) {}, coherence.AInvAck},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := newRig(tinyCfg(), 6)
			c.setup(r)
			r.run(t)
			r.xg.inv(0x100, r.cache.ID())
			r.run(t)
			if len(r.xg.invResps) != 1 || r.xg.invResps[0].Type != c.want {
				t.Fatalf("inv responses = %v, want one %v", r.xg.invResps, c.want)
			}
			if p, _, _ := r.cache.AuditLine(0x100); p {
				t.Fatal("line survived invalidation")
			}
		})
	}
}

func TestInvDuringBusySendsInvAck(t *testing.T) {
	// Table 1 row B: Invalidate -> send InvAck, take no further action.
	// Trigger via the Put/Inv race: inv while a writeback is in flight.
	r := newRig(tinyCfg(), 7)
	r.sq.Store(0x000, 3, nil)
	r.run(t)
	r.sq.Store(0x080, 4, nil)
	r.run(t)
	// Force the eviction of 0x000 and the inv in the same window.
	r.sq.Store(0x100, 5, nil) // triggers PutM of LRU
	r.xg.inv(0x000, r.cache.ID())
	r.run(t)
	found := false
	for _, m := range r.xg.invResps {
		if m.Type == coherence.AInvAck && m.Addr == 0x000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no InvAck from B; responses: %v", r.xg.invResps)
	}
}

// TestTable1Conformance drives the cache through a randomized workload
// with interleaved invalidations and verifies that every transition
// taken is one Table 1 declares — the machine-checked version of the
// paper's transition matrix.
func TestTable1Conformance(t *testing.T) {
	r := newRig(tinyCfg(), 8)
	r.sq.MaxOutstanding = 8
	addrs := []mem.Addr{0x000, 0x080, 0x100, 0x180, 0x040, 0x0c0, 0x140, 0x1c0}
	rnd := func(i int) mem.Addr { return addrs[i%len(addrs)] }
	grants := []coherence.MsgType{coherence.ADataS, coherence.ADataE, coherence.ADataM}
	for i := 0; i < 3000; i++ {
		r.xg.sGets = grants[(i/7)%3]
		switch i % 5 {
		case 0:
			r.sq.Load(rnd(i), nil)
		case 1:
			r.sq.Store(rnd(i), byte(i), nil)
		case 2:
			r.sq.Load(rnd(i*7+1), nil)
		case 3:
			r.xg.inv(rnd(i*3+2), r.cache.ID())
		case 4:
			r.sq.Store(rnd(i*5+3), byte(i), nil)
		}
		// Let a little time pass without draining, so operations pile up
		// against busy (B) lines and writebacks.
		r.eng.RunUntil(r.eng.Now() + 2)
	}
	r.run(t)
	if len(r.cache.Cov.Unexpected) != 0 {
		t.Fatalf("transitions outside Table 1: %v", r.cache.Cov.Unexpected)
	}
	if v, p := r.cache.Cov.Visited(), r.cache.Cov.Possible(); v < p*3/4 {
		t.Errorf("conformance drive visited only %d/%d Table 1 pairs (missing: %v)",
			v, p, r.cache.Cov.Missing())
	}
	t.Log(r.cache.Cov.Summary())
}

func TestVIFlavorSendsOnlyGetM(t *testing.T) {
	cfg := tinyCfg()
	cfg.Flavor = FlavorVI
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 9, network.Config{Latency: 3, Ordered: true})
	xg := newMockGuard(1, eng, fab)
	c := NewL1Cache(2, "vi", fab, 1, cfg)
	sq := seq.New(3, "acc", eng, fab, 2, new(seq.OpList))
	sq.Load(0x100, nil)
	sq.Store(0x180, 1, nil)
	eng.RunUntilQuiet()
	// Loads and stores alike must have issued GetM (paper §2.1: "a VI
	// design by sending only GetM requests").
	stats := fab.StatsFor(c.ID(), xg.ID())
	if stats.MsgsByType[coherence.AGetS] != 0 {
		t.Fatal("VI flavor issued GetS")
	}
	if stats.MsgsByType[coherence.AGetM] != 2 {
		t.Fatalf("GetM count = %d, want 2", stats.MsgsByType[coherence.AGetM])
	}
	_, st, _ := c.AuditLine(0x100)
	if st != AM {
		t.Fatalf("VI load final state = %v, want M(V)", st)
	}
}

func TestMSIFlavorTreatsDataEAsDataM(t *testing.T) {
	cfg := tinyCfg()
	cfg.Flavor = FlavorMSI
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 10, network.Config{Latency: 3, Ordered: true})
	xg := newMockGuard(1, eng, fab)
	xg.sGets = coherence.ADataE
	c := NewL1Cache(2, "msi", fab, 1, cfg)
	sq := seq.New(3, "acc", eng, fab, 2, new(seq.OpList))
	sq.Load(0x100, nil)
	eng.RunUntilQuiet()
	_, st, _ := c.AuditLine(0x100)
	if st != AM {
		t.Fatalf("MSI flavor state after DataE = %v, want M", st)
	}
	// Its invalidate response must be a Dirty writeback ("sending only
	// Dirty Writebacks", §2.1).
	xg.inv(0x100, c.ID())
	eng.RunUntilQuiet()
	if len(xg.invResps) != 1 || xg.invResps[0].Type != coherence.ADirtyWB {
		t.Fatalf("MSI inv response = %v, want DirtyWB", xg.invResps)
	}
}

func TestFlavorStrings(t *testing.T) {
	for f, want := range map[Flavor]string{FlavorMESI: "MESI", FlavorMSI: "MSI", FlavorVI: "VI"} {
		if f.String() != want {
			t.Errorf("%d.String() = %q", f, f.String())
		}
	}
	for s, want := range map[AState]string{AI: "I", AS: "S", AE: "E", AM: "M", AB: "B"} {
		if s.String() != want {
			t.Errorf("AState %q != %q", s.String(), want)
		}
	}
}

func TestTable1PairsShape(t *testing.T) {
	// The published table: M/E/S have 4 defined cells, I has 3 (no
	// replacement), B has 8 (stalls + 4 responses + inv).
	counts := map[string]int{}
	for _, p := range Table1Pairs() {
		counts[p[0]]++
	}
	want := map[string]int{"M": 4, "E": 4, "S": 4, "I": 3, "B": 8}
	for st, n := range want {
		if counts[st] != n {
			t.Errorf("Table 1 row %s has %d cells, want %d", st, counts[st], n)
		}
	}
}
