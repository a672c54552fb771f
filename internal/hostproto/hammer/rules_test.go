package hammer

import (
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
)

// TestHammerRulesMatchProtocol reads the package doc's §3.2.1 properties
// off the rows the cache and the directory run.
func TestHammerRulesMatchProtocol(t *testing.T) {
	at := func(st CState, ev int) rule {
		t.Helper()
		r := cacheRules.At(st, ev)
		if r == nil {
			t.Fatalf("no cell %v/%s", st, cacheTable.Events()[ev])
		}
		return *r
	}
	// GetS to an owner in M or E downgrades it to O.
	for _, st := range []CState{CM, CE} {
		if r := at(st, fwdGetS); r != data(CO) {
			t.Errorf("%v/FwdGetS = %+v, want Data into O", st, r)
		}
	}
	// An owner is a state that answers FwdGetS with data; FwdGetM takes
	// its data and its ownership.
	var owners []CState
	for st := CI; st <= CII; st++ {
		if at(st, fwdGetS).send != coherence.HData {
			continue
		}
		owners = append(owners, st)
		if r := at(st, fwdGetM); r.send != coherence.HData || (r.next != CI && r.next != CIM && r.next != CII) {
			t.Errorf("%v/FwdGetM = %+v, want Data into I, IM or II", st, r)
		}
	}
	if want := []CState{CE, CO, CM, COM, CMI, COI, CEI}; len(owners) != len(want) {
		t.Errorf("owners %v, want %v", owners, want)
	}
	// S is evicted silently; E, O and M by a two-part writeback.
	if r := at(CS, evReplacement); r.send != none || r.next != CI {
		t.Errorf("S/Replacement = %+v, want silent into I", r)
	}
	for st, next := range map[CState]CState{CE: CEI, CO: COI, CM: CMI} {
		if r := at(st, evReplacement); r != put(next) {
			t.Errorf("%v/Replacement = %+v, want Put into %v", st, r, next)
		}
	}
	if r := at(CII, wbAck); r != retire(coherence.HWBData) {
		t.Errorf("II/WBAck = %+v, want WBData", r)
	}
	// The non-upgradable GetS_only is served exactly as GetS.
	for st := CI; st <= CII; st++ {
		if s, o := cacheRules.At(st, fwdGetS), cacheRules.At(st, fwdGetSOnly); (s == nil) != (o == nil) || (s != nil && *s != *o) {
			t.Errorf("%v: FwdGetSOnly cell differs from FwdGetS cell", st)
		}
	}
	// The directory Nacks a Put from a non-owner: with no owner, always.
	if do := dirRules.At(dirUnowned, dirTable.Event(coherence.HPut)); do == nil || *do != nackPut {
		t.Errorf("Unowned/Put = %v, want nackPut", do)
	}
	if do := dirRules.At(dirOwned, dirTable.Event(coherence.HPut)); do == nil || *do != ackPut {
		t.Errorf("Owned/Put = %v, want ackPut", do)
	}
}

// TestWBAckInIISendsCleanWBData: a Put whose block was taken by a FwdGetM
// before its WBAck arrived closes with a clean WBData, so the directory
// does not write the stale block back over the new owner's.
func TestWBAckInIISendsCleanWBData(t *testing.T) {
	cfg := smallConfig()
	cfg.TxnMods = true // the forged forward's data reaches a requestor that never asked
	s := NewSystem(2, cfg, 9)
	const a = mem.Addr(0xc000)
	s.Seqs[0].Store(a, 7, nil)
	run(t, s)
	// Two conflicting fills evict the dirty line into MI.
	s.Seqs[0].Store(a+2*64, 1, nil)
	s.Seqs[0].Store(a+4*64, 2, nil)
	for i := 0; s.Caches[0].Buffered(a) == nil; i++ {
		if i == 1000 {
			t.Fatal("line never buffered")
		}
		s.Eng.RunUntil(s.Eng.Now() + 1)
	}
	forge(s, &coherence.Msg{Type: coherence.HFwdGetM, Addr: a, Src: NodeDir, Dst: s.Caches[0].ID(),
		Requestor: s.Caches[1].ID()})
	s.Eng.RunUntilQuiet()
	if n := s.Caches[0].Cov.Snapshot()["II/H:WBAck"]; n != 1 {
		t.Fatalf("II/H:WBAck visited %d times, want 1", n)
	}
	if mb := s.Mem.Peek(a); mb != nil && mb[0] == 7 {
		t.Fatal("the WBData from II was dirty: memory took the block")
	}
}
