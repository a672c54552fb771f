package hammer

import (
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/seq"
	"crossingguard/internal/tester"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.Sets, c.Ways = 2, 2
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
	var v byte
	s.Seqs[0].Store(0x1000, 7, nil)
	s.Seqs[0].Load(0x1000, func(op *seq.Op) { v = op.Result })
	run(t, s)
	if v != 7 {
		t.Fatalf("loaded %d, want 7", v)
	}
}

func TestExclusiveGrantWhenUnshared(t *testing.T) {
	s := NewSystem(2, DefaultConfig(), 2)
	s.Seqs[0].Load(0x2000, nil)
	run(t, s)
	_, st, _, _ := s.Caches[0].AuditLine(0x2000)
	if st != CE {
		t.Fatalf("lone reader state = %v, want E", st)
	}
	if s.Dir.Owner(0x2000) != s.Caches[0].ID() {
		t.Fatal("directory did not record the E holder as owner")
	}
}

func TestOwnerDowngradesToOOnGetS(t *testing.T) {
	s := NewSystem(2, DefaultConfig(), 3)
	s.Seqs[0].Store(0x3000, 5, nil) // cache0 -> M
	run(t, s)
	var got byte
	s.Seqs[1].Load(0x3000, func(op *seq.Op) { got = op.Result })
	run(t, s)
	if got != 5 {
		t.Fatalf("reader got %d, want 5 (cache-to-cache transfer)", got)
	}
	_, st0, _, _ := s.Caches[0].AuditLine(0x3000)
	_, st1, _, _ := s.Caches[1].AuditLine(0x3000)
	if st0 != CO || st1 != CS {
		t.Fatalf("states after GetS-to-owner: %v/%v, want O/S", st0, st1)
	}
	// The O copy is dirty: memory must not yet have been updated.
	if mb := s.Mem.Peek(0x3000); mb != nil && mb[0] == 5 {
		t.Fatal("memory updated prematurely; O should hold dirty data")
	}
}

func TestUpgradeFromO(t *testing.T) {
	s := NewSystem(3, DefaultConfig(), 4)
	s.Seqs[0].Store(0x4000, 1, nil)
	run(t, s)
	s.Seqs[1].Load(0x4000, nil) // cache0 -> O, cache1 -> S
	run(t, s)
	s.Seqs[0].Store(0x4000, 2, nil) // O -> OM -> M, invalidating cache1
	run(t, s)
	_, st0, data0, _ := s.Caches[0].AuditLine(0x4000)
	if st0 != CM || data0[0] != 2 {
		t.Fatalf("upgrader: %v data=%v", st0, data0[0])
	}
	if p, _, _, _ := s.Caches[1].AuditLine(0x4000); p {
		t.Fatal("old sharer not invalidated")
	}
	var got byte
	s.Seqs[2].Load(0x4000, func(op *seq.Op) { got = op.Result })
	run(t, s)
	if got != 2 {
		t.Fatalf("third core read %d, want 2", got)
	}
}

func TestWritebackUpdatesMemory(t *testing.T) {
	cfg := smallConfig()
	s := NewSystem(1, cfg, 5)
	// Fill one set (2 ways) and overflow to force a dirty writeback.
	for i := 0; i < 3; i++ {
		s.Seqs[0].Store(mem.Addr(0x8000+i*128), byte(i+1), nil)
	}
	run(t, s)
	for i := 0; i < 3; i++ {
		var got byte
		s.Seqs[0].Load(mem.Addr(0x8000+i*128), func(op *seq.Op) { got = op.Result })
		run(t, s)
		if got != byte(i+1) {
			t.Fatalf("line %d lost on eviction: got %d", i, got)
		}
	}
}

func TestSilentSharedEviction(t *testing.T) {
	// Evicting an S line must generate no Put traffic (hammer allows
	// silent eviction; this is why XG drops PutS for this host).
	cfg := smallConfig()
	s := NewSystem(2, cfg, 6)
	s.Seqs[1].Store(0xa000, 9, nil) // cache1 owns
	run(t, s)
	s.Seqs[0].Load(0xa000, nil) // cache0 -> S
	run(t, s)
	putsBefore := s.Fab.StatsFor(s.Caches[0].ID(), NodeDir).MsgsByType[coherence.HPut]
	// Force eviction of the S line from cache0.
	s.Seqs[0].Load(0xa000+2*64, nil)
	s.Seqs[0].Load(0xa000+4*64, nil)
	run(t, s)
	putsAfter := s.Fab.StatsFor(s.Caches[0].ID(), NodeDir).MsgsByType[coherence.HPut]
	if putsAfter != putsBefore {
		t.Fatalf("S eviction sent %d Puts; hammer evicts S silently", putsAfter-putsBefore)
	}
}

func TestNackOnRacingPut(t *testing.T) {
	// Force the Put/GetM race: cache0 holds M and evicts at the same
	// time as cache1 writes. With per-pair FIFO channels the directory
	// resolves it with a Nack to cache0 in II.
	s := NewSystem(2, smallConfig(), 7)
	s.Seqs[0].Store(0xb000, 1, nil)
	run(t, s)
	// Queue the conflicting operations in the same tick: cache0's
	// eviction (via conflicting fills) and cache1's store.
	s.Seqs[0].Store(0xb000+2*64, 2, nil)
	s.Seqs[0].Store(0xb000+4*64, 3, nil) // evicts 0xb000 (Put)
	s.Seqs[1].Store(0xb000, 4, nil)      // GetM racing the Put
	run(t, s)
	var got byte
	s.Seqs[0].Load(0xb000, func(op *seq.Op) { got = op.Result })
	run(t, s)
	if got != 4 {
		t.Fatalf("after racing put, read %d, want 4", got)
	}
}

func TestStressSmall(t *testing.T) {
	for seedBase := int64(0); seedBase < 3; seedBase++ {
		for _, ncpu := range []int{1, 2, 4} {
			s := NewSystem(ncpu, smallConfig(), 300+seedBase)
			cfg := tester.DefaultConfig(400 + seedBase)
			cfg.StoresPerLoc = 30
			res, err := tester.Run(s, cfg)
			if err != nil {
				t.Fatalf("ncpu=%d seed=%d: %v", ncpu, seedBase, err)
			}
			if res.Stores == 0 {
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
	s := NewSystem(4, smallConfig(), 52)
	cfg := tester.Config{
		Seed: 53, Lines: 2, LocsPerLine: 4, StoresPerLoc: 100,
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
	s := NewSystem(4, smallConfig(), 88)
	cfg := tester.DefaultConfig(89)
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

// AuditLine reports a cache's stable view of one line.
func (c *Cache) AuditLine(addr mem.Addr) (present bool, st CState, data *mem.Block, dirty bool) {
	e := c.Lines.Peek(addr)
	if e == nil || !e.V.state.Stable() || e.V.state == CI {
		return false, CI, nil, false
	}
	return true, e.V.state, e.V.data, e.V.dirty
}
