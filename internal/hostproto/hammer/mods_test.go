package hammer

import (
	"slices"
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/seq"
)

// forge injects a raw protocol message, standing in for state corrupted
// by a misbehaving accelerator upstream of the directory.
func forge(s *System, m *coherence.Msg) {
	s.Fab.Send(m)
}

// TestUnexpectedNackSunkWithMods: paper §3.2.1 — "we modify the host
// L1/L2 caches to sink unexpected Nacks and generate an error".
func TestUnexpectedNackSunkWithMods(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxnMods = true
	s := NewSystem(2, cfg, 1)
	s.Seqs[0].Store(0x1000, 1, nil)
	s.Eng.RunUntilQuiet()
	// A Nack out of nowhere, aimed at a cache in stable state.
	forge(s, &coherence.Msg{Type: coherence.HNack, Addr: 0x1000, Src: NodeDir, Dst: s.Caches[0].ID()})
	s.Eng.RunUntilQuiet()
	if s.Caches[0].NacksSunk != 1 {
		t.Fatalf("NacksSunk = %d, want 1", s.Caches[0].NacksSunk)
	}
	if s.Log.ByCode["HOST.UnexpectedNack"] != 1 {
		t.Fatalf("error log: %v", s.Log.ByCode)
	}
	// The tolerance is a cell of the cache's table, not an undeclared visit.
	if u := s.Caches[0].Cov.Unexpected; len(u) != 0 {
		t.Fatalf("sunk Nack recorded as undeclared: %v", u)
	}
	// The cache remains fully functional.
	var got byte
	s.Seqs[0].Load(0x1000, func(op *seq.Op) { got = op.Result })
	s.Eng.RunUntilQuiet()
	if got != 1 {
		t.Fatalf("post-nack load = %d", got)
	}
}

// TestUnexpectedNackPanicsBaseline: without the modification, the
// unmodified protocol treats it as an undefined transition and dies —
// exactly the fragility the paper's change removes.
func TestUnexpectedNackPanicsBaseline(t *testing.T) {
	cfg := DefaultConfig() // TxnMods off
	s := NewSystem(1, cfg, 2)
	s.Seqs[0].Store(0x1000, 1, nil)
	s.Eng.RunUntilQuiet()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("baseline accepted an unexpected Nack")
		}
		if !strings.Contains(r.(string), "Nack") {
			t.Fatalf("panic = %v", r)
		}
	}()
	forge(s, &coherence.Msg{Type: coherence.HNack, Addr: 0x1000, Src: NodeDir, Dst: s.Caches[0].ID()})
	s.Eng.RunUntilQuiet()
}

// TestGetSOnlyNeverGrantsExclusive: the §3.2.1 non-upgradable request —
// "we add a non-upgradable GetS only request".
func TestGetSOnlyNeverGrantsExclusive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxnMods = true
	s := NewSystem(2, cfg, 3)
	// Issue a GetSOnly directly from cache 0's protocol engine by
	// forging the request path: simplest is via the directory message,
	// but the cache must track it; instead drive a plain load and then
	// verify the guard-facing property at the directory level with a
	// forged GetSOnly from cache 1.
	s.Seqs[0].Store(0x2000, 9, nil)
	s.Eng.RunUntilQuiet()
	// CPU caches never issue GetSOnly themselves (only the guard does),
	// so drive the directory protocol directly: request, then the
	// shared-unblock a GetSOnly requestor always sends.
	forge(s, &coherence.Msg{Type: coherence.HGetSOnly, Addr: 0x2000, Src: s.Caches[1].ID(), Dst: NodeDir})
	s.Eng.RunUntil(s.Eng.Now() + 500)
	forge(s, &coherence.Msg{Type: coherence.HUnblock, Addr: 0x2000, Src: s.Caches[1].ID(),
		Dst: NodeDir, Shared: true})
	s.Eng.RunUntilQuiet()
	// Ownership must NOT have moved to the GetSOnly requestor, and the
	// previous owner must have been downgraded out of M (it answered the
	// Fwd_GetSOnly with data).
	if got := s.Dir.Owner(0x2000); got == s.Caches[1].ID() {
		t.Fatal("GetSOnly produced ownership")
	}
	if s.Dir.Outstanding() != 0 {
		t.Fatal("directory wedged after GetSOnly")
	}
	_, st, _, _ := s.Caches[0].AuditLine(0x2000)
	if st != CO {
		t.Fatalf("previous owner state = %v, want O (supplied data, kept ownership)", st)
	}
	// The directory and the owner took the pair by declared cells. (The
	// forged requestor never asked, so its responses are undeclared.)
	if u := s.Dir.Cov.Unexpected; len(u) != 0 {
		t.Fatalf("directory visited undeclared %v", u)
	}
	visited := 0
	for pair := range s.Caches[0].Cov.Snapshot() {
		if strings.HasSuffix(pair, "/H:FwdGetSOnly") {
			visited++
			if slices.Contains(s.Caches[0].Cov.Unexpected, pair) {
				t.Errorf("owner visited undeclared %s", pair)
			}
		}
	}
	if visited == 0 {
		t.Fatal("no FwdGetSOnly cell visited")
	}
}

// TestMultiDataToleratedWithMods: §3.2.1 — the requestor counts
// responses rather than acks, so duplicate data is absorbed.
func TestMultiDataToleratedWithMods(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxnMods = true
	s := NewSystem(2, cfg, 4)
	// Start a load and inject an extra data response mid-transaction.
	s.Seqs[0].Load(0x3000, nil)
	s.Eng.RunUntil(30) // the broadcast is in flight
	forge(s, &coherence.Msg{Type: coherence.HData, Addr: 0x3000, Src: s.Caches[1].ID(),
		Dst: s.Caches[0].ID(), Data: s.Mem.Read(0x3000), Dirty: false, Shared: true})
	s.Eng.RunUntilQuiet()
	if s.Log.ByCode["HOST.MultiData"] == 0 {
		t.Skip("injection missed the window; nothing to tolerate")
	}
	// The system must still be live.
	var got byte
	s.Seqs[0].Load(0x3000, func(op *seq.Op) { got = op.Result })
	s.Eng.RunUntilQuiet()
	_ = got
	if s.Outstanding() != 0 {
		t.Fatal("transaction wedged after duplicate data")
	}
}
