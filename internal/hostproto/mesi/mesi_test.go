package mesi

import (
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/seq"
	"crossingguard/internal/tester"
)

func smallConfig() Config {
	c := DefaultConfig()
	// Tiny caches so the stress test forces replacements and recalls,
	// as the paper does ("cache sizes are correspondingly decreased so
	// that replacements are frequent").
	c.L1Sets, c.L1Ways = 2, 2
	c.L2Sets, c.L2Ways = 4, 2
	return c
}

func run(t *testing.T, s *System) {
	t.Helper()
	s.Eng.RunUntilQuiet()
	if n := s.Outstanding(); n != 0 {
		t.Fatalf("%d transactions outstanding after quiesce", n)
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestSingleCPULoadStore(t *testing.T) {
	s := NewSystem(1, DefaultConfig(), 1)
	var v1, v2 byte
	s.Seqs[0].Store(0x1000, 7, nil)
	s.Seqs[0].Load(0x1000, func(op *seq.Op) { v1 = op.Result })
	s.Seqs[0].Load(0x1001, func(op *seq.Op) { v2 = op.Result })
	run(t, s)
	if v1 != 7 || v2 != 0 {
		t.Fatalf("loaded %d,%d want 7,0", v1, v2)
	}
}

func TestStoreVisibleToOtherCore(t *testing.T) {
	s := NewSystem(2, DefaultConfig(), 2)
	var got byte
	s.Seqs[0].Store(0x2000, 99, func(*seq.Op) {
		s.Seqs[1].Load(0x2000, func(op *seq.Op) { got = op.Result })
	})
	run(t, s)
	if got != 99 {
		t.Fatalf("core1 loaded %d, want 99", got)
	}
}

func TestExclusiveGrantOnPrivateGetS(t *testing.T) {
	// A lone reader must receive E (paper: hosts may answer GetS with
	// DataE when no other cache has the block).
	s := NewSystem(2, DefaultConfig(), 3)
	s.Seqs[0].Load(0x3000, nil)
	run(t, s)
	e := s.L1s[0].Lines.Peek(0x3000)
	if e == nil || e.V.state != L1E {
		t.Fatalf("lone reader state = %v, want E", e)
	}
	// A second reader downgrades the first to S via Fwd_GetS.
	var got byte
	s.Seqs[1].Load(0x3000, func(op *seq.Op) { got = op.Result })
	run(t, s)
	if s.L1s[0].Lines.Peek(0x3000).V.state != L1S {
		t.Fatalf("owner not downgraded to S")
	}
	if s.L1s[1].Lines.Peek(0x3000).V.state != L1S {
		t.Fatalf("second reader not S")
	}
	_ = got
}

func TestSilentEUpgrade(t *testing.T) {
	s := NewSystem(1, DefaultConfig(), 4)
	s.Seqs[0].Load(0x4000, nil) // E grant
	run(t, s)
	s.Seqs[0].Store(0x4000, 5, nil) // silent E->M, no GetM
	run(t, s)
	if st := s.L1s[0].Lines.Peek(0x4000).V.state; st != L1M {
		t.Fatalf("state after store on E = %v, want M", st)
	}
	// No GetM should have crossed the fabric for this upgrade.
	stats := s.Fab.StatsFor(s.L1s[0].ID(), NodeL2)
	if n := stats.MsgsByType[coherence.MGetM]; n != 0 {
		t.Fatalf("silent upgrade issued %d GetMs", n)
	}
}

func TestInvalidationOnGetM(t *testing.T) {
	s := NewSystem(3, DefaultConfig(), 5)
	// Cores 0,1 read; core 2 writes; cores 0,1 must then observe.
	s.Seqs[0].Load(0x5000, nil)
	s.Seqs[1].Load(0x5000, nil)
	run(t, s)
	s.Seqs[2].Store(0x5000, 42, nil)
	run(t, s)
	if e := s.L1s[0].Lines.Peek(0x5000); e != nil {
		t.Fatalf("core0 still holds line after invalidation: %v", e.V.state)
	}
	var v0, v1 byte
	s.Seqs[0].Load(0x5000, func(op *seq.Op) { v0 = op.Result })
	s.Seqs[1].Load(0x5000, func(op *seq.Op) { v1 = op.Result })
	run(t, s)
	if v0 != 42 || v1 != 42 {
		t.Fatalf("readers saw %d,%d want 42,42", v0, v1)
	}
}

func TestOwnershipHandOff(t *testing.T) {
	// M in core0, GetM by core1: data must move cache-to-cache.
	s := NewSystem(2, DefaultConfig(), 6)
	s.Seqs[0].Store(0x6000, 1, nil)
	run(t, s)
	s.Seqs[1].Store(0x6000, 2, nil)
	run(t, s)
	if e := s.L1s[0].Lines.Peek(0x6000); e != nil {
		t.Fatalf("old owner still holds line: %v", e.V.state)
	}
	e := s.L1s[1].Lines.Peek(0x6000)
	if e == nil || e.V.state != L1M {
		t.Fatal("new owner not in M")
	}
	if e.V.data[0] != 2 {
		t.Fatalf("new owner data[0]=%d, want 2", e.V.data[0])
	}
}

func TestWritebackOnEviction(t *testing.T) {
	// Tiny L1 (2 sets x 2 ways): four same-set lines force an eviction.
	cfg := smallConfig()
	s := NewSystem(1, cfg, 7)
	// Lines mapping to set 0 with 2 sets: stride = 2*64 = 128.
	for i := 0; i < 3; i++ {
		s.Seqs[0].Store(mem.Addr(0x8000+i*128), byte(i+1), nil)
	}
	run(t, s)
	// All three values must be recoverable.
	for i := 0; i < 3; i++ {
		i := i
		var got byte
		s.Seqs[0].Load(mem.Addr(0x8000+i*128), func(op *seq.Op) { got = op.Result })
		run(t, s)
		if got != byte(i+1) {
			t.Fatalf("line %d lost on eviction: got %d", i, got)
		}
	}
}

func TestL2RecallForInclusion(t *testing.T) {
	// Tiny L2 (4 sets x 2 ways) with a larger L1: filling one L2 set
	// beyond capacity must recall lines out of the L1.
	cfg := DefaultConfig()
	cfg.L2Sets, cfg.L2Ways = 2, 2
	cfg.L1Sets, cfg.L1Ways = 64, 4
	s := NewSystem(1, cfg, 8)
	stride := 2 * mem.BlockBytes // same L2 set every time
	for i := 0; i < 5; i++ {
		s.Seqs[0].Store(mem.Addr(0x9000+i*stride), byte(i+1), nil)
	}
	run(t, s)
	// Inclusion: no L1 line may exist without its L2 line (Audit covers
	// it); values survive.
	for i := 0; i < 5; i++ {
		var got byte
		s.Seqs[0].Load(mem.Addr(0x9000+i*stride), func(op *seq.Op) { got = op.Result })
		run(t, s)
		if got != byte(i+1) {
			t.Fatalf("line %d lost through recall: got %d", i, got)
		}
	}
}

func TestPutSExactSharerTracking(t *testing.T) {
	// After a sharer evicts (PutS), a writer should need one fewer ack.
	cfg := smallConfig()
	s := NewSystem(2, cfg, 9)
	s.Seqs[0].Load(0xa000, nil)
	s.Seqs[1].Load(0xa000, nil)
	run(t, s)
	// Force core1 to evict 0xa000 by filling its set (2 ways).
	s.Seqs[1].Load(0xa000+2*64, nil)
	s.Seqs[1].Load(0xa000+4*64, nil)
	run(t, s)
	if e := s.L1s[1].Lines.Peek(0xa000); e != nil {
		t.Skip("eviction did not pick the expected victim")
	}
	_, _, sharers, _, _ := s.L2C.AuditLine(0xa000)
	if sharers != 1 {
		t.Fatalf("L2 records %d sharers after PutS, want 1", sharers)
	}
}

func TestStressSmall(t *testing.T) {
	for seedBase := int64(0); seedBase < 3; seedBase++ {
		for _, ncpu := range []int{1, 2, 4} {
			s := NewSystem(ncpu, smallConfig(), 100+seedBase)
			cfg := tester.DefaultConfig(200 + seedBase)
			cfg.StoresPerLoc = 30
			res, err := tester.Run(s, cfg)
			if err != nil {
				t.Fatalf("ncpu=%d seed=%d: %v", ncpu, seedBase, err)
			}
			if res.Stores == 0 || res.LoadChecks == 0 {
				t.Fatalf("stress did nothing: %+v", res)
			}
			if s.Log.Count() != 0 {
				t.Fatalf("baseline stress reported protocol errors: %v", s.Log.Errors[0])
			}
		}
	}
}

func TestStressContended(t *testing.T) {
	if testing.Short() {
		t.Skip("long stress")
	}
	// One line, many locations: maximal false sharing.
	s := NewSystem(4, smallConfig(), 42)
	cfg := tester.Config{
		Seed: 43, Lines: 2, LocsPerLine: 4, StoresPerLoc: 100,
		LoadsPerStore: 3, BaseAddr: 0x40000, Deadline: 50_000_000,
	}
	if _, err := tester.Run(s, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStressCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("long stress")
	}
	s := NewSystem(4, smallConfig(), 77)
	cfg := tester.DefaultConfig(78)
	cfg.StoresPerLoc = 200
	if _, err := tester.Run(s, cfg); err != nil {
		t.Fatal(err)
	}
	for _, cov := range s.Coverage() {
		if len(cov.Unexpected) != 0 {
			t.Errorf("%s: unexpected transitions: %v", cov.Name(), cov.Unexpected)
		}
		t.Logf("%s", cov.Summary())
	}
}

// AuditLine reports the L2's view of one line: present, owner, sharer
// count, data, dirty.
func (l *L2) AuditLine(addr mem.Addr) (present bool, owner coherence.NodeID, sharers int, data *mem.Block, dirty bool) {
	e := l.cache.Peek(addr)
	if e == nil {
		return false, coherence.NodeNone, 0, nil, false
	}
	return true, e.V.owner, len(e.V.sharers), e.V.data, e.V.dirty
}
