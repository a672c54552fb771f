package accel

import (
	"fmt"
	"maps"
	"slices"
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
// Table 1 deterministically. Set to nack, it refuses every request as a
// quarantined guard does.
type mockGuard struct {
	id    coherence.NodeID
	eng   *sim.Engine
	fab   *network.Fabric
	mem   *mem.Memory
	sGets coherence.MsgType // response type for GetS (DataS/DataE/DataM)
	nack  bool

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
	if g.nack && m.Type.IsAccelRequest() {
		g.fab.Send(&coherence.Msg{Type: coherence.ANack, Addr: m.Addr, Src: g.id, Dst: m.Src})
		return
	}
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

// newTableL1 builds a single-level cache running tab in place of Table 1.
func newTableL1(tab *coherence.Rules[AState, step], fab *network.Fabric, cfg Config) *L1Cache {
	c := &L1Cache{}
	c.init(c, tab, 2, tab.Class, fab, 1, cfg)
	return c
}

func TestVIFlavorSendsOnlyGetM(t *testing.T) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 9, network.Config{Latency: 3, Ordered: true})
	xg := newMockGuard(1, eng, fab)
	c := newTableL1(tableVI, fab, tinyCfg())
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
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 10, network.Config{Latency: 3, Ordered: true})
	xg := newMockGuard(1, eng, fab)
	xg.sGets = coherence.ADataE
	c := newTableL1(tableMSI, fab, tinyCfg())
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

// TestFlavorStrings checks the state names, and that the §2.1 degraded
// designs, built from Table 1 with cells substituted, keep its states
// and record coverage under the L1's class.
func TestFlavorStrings(t *testing.T) {
	for s, want := range map[AState]string{AI: "I", AS: "S", AE: "E", AM: "M", AB: "B"} {
		if s.String() != want {
			t.Errorf("AState %q != %q", s.String(), want)
		}
	}
	for name, tab := range map[string]*coherence.Rules[AState, step]{"MESI": table1, "MSI": tableMSI, "VI": tableVI} {
		_, rows := tab.Render(cellText)
		var states []string
		for _, r := range rows {
			states = append(states, r[0])
		}
		if want := []string{"M", "E", "S", "I", "B"}; !slices.Equal(states, want) {
			t.Errorf("%s states %q, want %q", name, states, want)
		}
		if tab.Class != "accel.L1" {
			t.Errorf("%s records coverage under %q, want accel.L1", name, tab.Class)
		}
	}
}

func TestTable1PairsShape(t *testing.T) {
	// The published table: M/E/S have 4 defined cells, I has 3 (no
	// replacement), B has 8 (stalls + 4 responses + inv).
	counts := map[string]int{}
	for _, r := range table1.Rows {
		counts[r.St.String()] += len(r.Evs)
	}
	want := map[string]int{"M": 4, "E": 4, "S": 4, "I": 3, "B": 8}
	if !maps.Equal(counts, want) {
		t.Errorf("Table 1 has %v cells per state, want %v", counts, want)
	}
}

// paperTable1 is Table 1 as the paper prints it (§2.1), "-" for an
// impossible cell.
var paperTable1 = [][]string{
	{"M", "hit", "hit", "issue PutM / B", "send DirtyWB / I", "-", "-", "-", "-"},
	{"E", "hit", "hit / M", "issue PutE / B", "send CleanWB / I", "-", "-", "-", "-"},
	{"S", "hit", "issue GetM / B", "issue PutS / B", "send InvAck / I", "-", "-", "-", "-"},
	{"I", "issue GetS / B", "issue GetM / B", "-", "send InvAck", "-", "-", "-", "-"},
	{"B", "stall", "stall", "stall", "send InvAck", "/ M", "/ E", "/ S", "/ I"},
}

// TestTable1MatchesPaper renders the rows the L1 cache runs and compares
// all 40 cells with the published table, then checks that the degraded
// designs differ from it in exactly the cells §2.1 names.
func TestTable1MatchesPaper(t *testing.T) {
	events, rows := Table1()
	paperEvents := []string{"Load", "Store", "Replacement", "A:Inv", "A:DataM", "A:DataE", "A:DataS", "A:WBAck"}
	if !slices.Equal(events, paperEvents) {
		t.Fatalf("events %q, the paper's %q", events, paperEvents)
	}
	if len(rows) != len(paperTable1) {
		t.Fatalf("%d states, the paper's %d", len(rows), len(paperTable1))
	}
	cells := 0
	for i, want := range paperTable1 {
		if !slices.Equal(rows[i], want) {
			t.Errorf("row %q, the paper's %q", rows[i], want)
		}
		cells += len(want) - 1
	}
	if cells != 40 {
		t.Errorf("the paper's table has %d cells, want 40", cells)
	}
	for _, d := range []struct {
		name string
		tab  *coherence.Rules[AState, step]
		want map[string]string // "state/event" -> cell
	}{
		{"MSI", tableMSI, map[string]string{"B/A:DataE": "/ M", "E/Replacement": "issue PutM / B"}},
		{"VI", tableVI, map[string]string{"B/A:DataE": "/ M", "E/Replacement": "issue PutM / B",
			"I/Load": "issue GetM / B"}},
	} {
		_, got := d.tab.Render(cellText)
		diff := map[string]string{}
		for i := range got {
			for j := 1; j < len(got[i]); j++ {
				if got[i][j] != rows[i][j] {
					diff[got[i][0]+"/"+events[j-1]] = got[i][j]
				}
			}
		}
		if !maps.Equal(diff, d.want) {
			t.Errorf("%s differs from Table 1 in %v, want %v", d.name, diff, d.want)
		}
	}
}

// TestTablesWellFormed checks every table for the cells the interpreter
// reads without looking: Load, Store and Inv in every state, Replacement
// in every stable valid one, a Get only into B, a B cell for every
// message, and a grant only into a state where the ops it completes hit.
func TestTablesWellFormed(t *testing.T) {
	// completes lists the core ops a grant may answer: DataS and DataE
	// answer GetS only.
	completes := map[coherence.MsgType][]int{
		coherence.ADataS: {evLoad}, coherence.ADataE: {evLoad}, coherence.ADataM: {evLoad, evStore},
		coherence.XDataS: {evLoad}, coherence.XDataM: {evLoad, evStore},
	}
	gets := []coherence.MsgType{coherence.AGetS, coherence.AGetM, coherence.XGetS, coherence.XGetM}
	for _, tab := range []*coherence.Rules[AState, step]{table1, tableMSI, tableVI, innerL1} {
		name := func(st AState, ev int) string { return fmt.Sprintf("%s %v/%s", tab.Class, st, tab.Vocab.Events()[ev]) }
		hits := func(st AState, ev int) bool {
			r := tab.At(st, ev)
			return r != nil && st.Stable() && r.send == none
		}
		inv := tab.Vocab.Event(coherence.AInv)
		if inv < 0 {
			inv = tab.Vocab.Event(coherence.XInv)
		}
		for st := AI; st <= AB; st++ {
			for ev := range tab.Vocab.Events() {
				r := tab.At(st, ev)
				if r == nil {
					continue
				}
				for _, ev := range []int{evLoad, evStore, inv} {
					if tab.At(st, ev) == nil {
						t.Errorf("%s has no cell", name(st, ev))
					}
				}
				if tab.At(st, evReplacement) == nil && st.Stable() && st != AI {
					t.Errorf("%s has no cell", name(st, evReplacement))
				}
				if slices.Contains(gets, r.send) && r.next != AB {
					t.Errorf("%s sends %v into %v, not B", name(st, ev), r.send, r.next)
				}
				if ev >= len(localEvents) && tab.At(AB, ev) == nil {
					t.Errorf("%s has no cell", name(AB, ev))
				}
				for mt, ops := range completes {
					if tab.Vocab.Event(mt) != ev {
						continue
					}
					for _, op := range ops {
						if !hits(r.next, op) {
							t.Errorf("%s enters %v, where %s is not a hit", name(st, ev), r.next, localEvents[op])
						}
					}
				}
			}
		}
	}
}

// AuditLine reports the cache's stable view of one line.
func (c *L1Cache) AuditLine(addr mem.Addr) (present bool, st AState, data *mem.Block) {
	e := c.Lines.Peek(addr)
	if e == nil || e.V.state == AB || e.V.state == AI {
		return false, AI, nil
	}
	return true, e.V.state, e.V.data
}
