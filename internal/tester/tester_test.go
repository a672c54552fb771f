package tester

import (
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
)

// fakeSystem is a single trivially-coherent memory shared by N cores —
// plus injectable faults, so the tester's *detection* logic is testable.
type fakeSystem struct {
	eng  *sim.Engine
	fab  *network.Fabric
	mem  *mem.Memory
	seqs []*seq.Sequencer

	corruptAfter int // nth store whose value is silently flipped (0=off)
	dropAfter    int // nth request that is silently dropped (0=off)
	reqs         int
	stores       int
}

type fakeCache struct {
	s  *fakeSystem
	id coherence.NodeID
}

func (c *fakeCache) ID() coherence.NodeID { return c.id }
func (c *fakeCache) Name() string         { return "fake" }
func (c *fakeCache) Recv(m *coherence.Msg) {
	c.s.reqs++
	if c.s.dropAfter > 0 && c.s.reqs == c.s.dropAfter {
		return // lose the request: deadlock
	}
	resp := &coherence.Msg{Addr: m.Addr, Src: c.id, Dst: m.Src, Tag: m.Tag}
	switch m.Type {
	case coherence.ReqLoad:
		resp.Type = coherence.RespLoad
		resp.Val = c.s.mem.LoadByte(m.Addr)
	case coherence.ReqStore:
		resp.Type = coherence.RespStore
		c.s.stores++
		v := m.Val
		if c.s.corruptAfter > 0 && c.s.stores == c.s.corruptAfter {
			v ^= 0xff // corrupt
		}
		c.s.mem.StoreByte(m.Addr, v)
	}
	c.s.fab.Send(resp)
}

func newFake(cores int, seed int64) *fakeSystem {
	eng := sim.NewEngine()
	fs := &fakeSystem{
		eng: eng,
		fab: network.NewFabric(eng, seed, network.Config{Latency: 2}),
		mem: mem.NewMemory(),
	}
	ops := new(seq.OpList)
	for i := 0; i < cores; i++ {
		c := &fakeCache{s: fs, id: coherence.NodeID(10 + i)}
		fs.fab.Register(c)
		fs.seqs = append(fs.seqs, seq.New(coherence.NodeID(100+i), "core", eng, fs.fab, c.ID(), ops))
	}
	return fs
}

func (f *fakeSystem) Engine() *sim.Engine          { return f.eng }
func (f *fakeSystem) Sequencers() []*seq.Sequencer { return f.seqs }
func (f *fakeSystem) Outstanding() (n int) {
	for _, s := range f.seqs {
		n += s.Outstanding()
	}
	return
}
func (f *fakeSystem) Audit() error { return nil }

func TestRunCompletesOnCorrectSystem(t *testing.T) {
	fs := newFake(4, 1)
	cfg := DefaultConfig(2)
	cfg.StoresPerLoc = 10
	res, err := Run(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantStores := uint64(cfg.Lines * cfg.LocsPerLine * cfg.StoresPerLoc)
	if res.Stores != wantStores {
		t.Fatalf("stores = %d, want %d", res.Stores, wantStores)
	}
	if res.Loads != wantStores*uint64(cfg.LoadsPerStore) {
		t.Fatalf("loads = %d", res.Loads)
	}
	if res.LoadChecks != res.Loads {
		t.Fatalf("checks %d != loads %d", res.LoadChecks, res.Loads)
	}
}

func TestRunDetectsDataCorruption(t *testing.T) {
	fs := newFake(2, 3)
	fs.corruptAfter = 17
	cfg := DefaultConfig(4)
	cfg.StoresPerLoc = 10
	_, err := Run(fs, cfg)
	if err == nil || !strings.Contains(err.Error(), "DATA ERROR") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestRunDetectsDeadlock(t *testing.T) {
	fs := newFake(2, 5)
	fs.dropAfter = 9
	cfg := DefaultConfig(6)
	cfg.StoresPerLoc = 5
	_, err := Run(fs, cfg)
	if err == nil || !strings.Contains(err.Error(), "DEADLOCK") {
		t.Fatalf("deadlock not detected: %v", err)
	}
}

func TestSkipValueChecks(t *testing.T) {
	fs := newFake(2, 7)
	fs.corruptAfter = 3
	cfg := DefaultConfig(8)
	cfg.StoresPerLoc = 5
	cfg.SkipValueChecks = true
	res, err := Run(fs, cfg)
	if err != nil {
		t.Fatalf("value checks not skipped: %v", err)
	}
	if res.LoadChecks != 0 {
		t.Fatalf("LoadChecks = %d with checking disabled", res.LoadChecks)
	}
	if res.Loads == 0 {
		t.Fatal("loads still issued")
	}
}

func TestBadConfigRejected(t *testing.T) {
	fs := newFake(1, 9)
	if _, err := Run(fs, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := Run(&fakeSystem{eng: sim.NewEngine()}, DefaultConfig(1)); err == nil {
		t.Fatal("system without sequencers accepted")
	}
}

func TestLocationsSpreadWithinLines(t *testing.T) {
	// Two locations per line must land on distinct byte offsets.
	cfg := DefaultConfig(1)
	if cfg.LocsPerLine < 2 {
		t.Skip("default config no longer shares lines")
	}
	off1 := 0
	off2 := mem.BlockBytes / cfg.LocsPerLine
	if off1 == off2 {
		t.Fatal("locations collide within a line")
	}
}
