package mesi

import (
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/seq"
	"crossingguard/internal/tester"
)

// TestMESIRulesMatchProtocol reads the package doc's §2.4 and §3.2.2
// properties off the rows the L1 and the L2 run.
func TestMESIRulesMatchProtocol(t *testing.T) {
	at := func(st L1State, ev int) rule {
		t.Helper()
		r := l1Rules.At(st, ev)
		if r == nil {
			t.Fatalf("no cell %v/%s", st, l1Table.Events()[ev])
		}
		return *r
	}
	// The L2 tells a GetM requestor how many acks to expect: DataAcks is
	// taken exactly by the two awaiting-data-and-acks transients, and
	// moves each to its awaiting-acks transient.
	for st := L1I; st <= L1IIa; st++ {
		r := l1Rules.At(st, dataAcks)
		switch want := map[L1State]L1State{L1IMad: L1IMa, L1SMad: L1SMa}[st]; {
		case want == L1I && r != nil:
			t.Errorf("%v/DataAcks = %+v, want no cell", st, *r)
		case want != L1I && (r == nil || *r != collect(want)):
			t.Errorf("%v/DataAcks = %v, want collect into %v", st, r, want)
		}
	}
	// Fwd_GetS and Fwd_GetM pull the data straight out of an owning L1:
	// E and M answer with DataOwner, keeping an S copy for a Fwd_GetS.
	for _, st := range []L1State{L1E, L1M} {
		if r := at(st, fwdGetS); r != give(L1S) {
			t.Errorf("%v/FwdGetS = %+v, want DataOwner into S", st, r)
		}
		if r := at(st, fwdGetM); r != give(L1I) {
			t.Errorf("%v/FwdGetM = %+v, want DataOwner into I", st, r)
		}
	}
	// Exact sharer tracking: S is evicted with a PutS, the owners by a
	// PutM that waits for its WBAck.
	if r := at(L1S, evReplacement); r != put(coherence.MPutS, L1I) {
		t.Errorf("S/Replacement = %+v, want PutS into I", r)
	}
	for _, st := range []L1State{L1E, L1M} {
		if r := at(st, evReplacement); r != put(coherence.MPutM, L1MIa) {
			t.Errorf("%v/Replacement = %+v, want PutM into MI_A", st, r)
		}
	}
	// The §3.2.2 tolerance cell, an InvAck taken as GetS data, is IS_D's
	// alone, and acts only under TxnMods (TestAckAsDataCell).
	for st := L1I; st <= L1IIa; st++ {
		for ev := range l1Table.Events() {
			if r := l1Rules.At(st, ev); r != nil && r.act == actAckAsData && (st != L1ISd || ev != invAck) {
				t.Errorf("%v/%s is a tolerance cell", st, l1Table.Events()[ev])
			}
		}
	}
	if r := at(L1ISd, invAck); r.act != actAckAsData {
		t.Errorf("IS_D/InvAck = %+v, want the AckAsData tolerance", r)
	}
	// The L2's WBAsAck tolerance is a copy taken only while a transaction
	// is open; an idle line drops a late copy.
	l2 := func(k int, ev []int) l2Action {
		t.Helper()
		do := l2Rules.At(k, ev[0])
		if do == nil {
			t.Fatalf("no L2 cell %s/%s", l2Table.States()[k], l2Table.Events()[ev[0]])
		}
		return *do
	}
	for _, k := range []int{l2SSBusy, l2MTBusy} {
		if do := l2(k, l2Copy); do != takeCopy {
			t.Errorf("%s/CopyToL2 = %v, want takeCopy", l2Table.States()[k], do)
		}
	}
	for _, k := range []int{l2NP, int(L2SS), int(L2MT)} {
		if do := l2(k, l2Copy); do != dropLate {
			t.Errorf("%s/CopyToL2 = %v, want dropLate", l2Table.States()[k], do)
		}
		if do := l2Rules.At(k, l2Unblock[0]); do != nil {
			t.Errorf("%s/Unblock = %v, want no cell", l2Table.States()[k], *do)
		}
	}
	// The L2 takes GetInstr, the non-upgradable GetS, as it takes GetS.
	for k := range l2Table.States() {
		if s, i := l2Rules.At(k, l2Gets[0]), l2Rules.At(k, l2Gets[2]); (s == nil) != (i == nil) || (s != nil && *s != *i) {
			t.Errorf("%s: GetInstr cell differs from GetS cell", l2Table.States()[k])
		}
	}
}

// TestAckAsDataCell drives IS_D/M:InvAck, the §3.2.2 tolerance: an owner
// behind the guard answers a Fwd_GetS with an InvAck. With TxnMods the
// InvAck completes the GetS with a zero block and an AckAsData error; the
// baseline treats it as fatal.
func TestAckAsDataCell(t *testing.T) {
	const a, ghost = mem.Addr(0x3000), coherence.NodeID(999)
	for _, mods := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.TxnMods = mods
		s := NewSystem(1, cfg, 15)
		// The ghost, standing in for the guard, takes the line in M.
		s.Fab.Send(&coherence.Msg{Type: coherence.MGetM, Addr: a, Src: ghost, Dst: NodeL2})
		s.Eng.RunUntil(500)
		s.Fab.Send(&coherence.Msg{Type: coherence.MUnblock, Addr: a, Src: ghost, Dst: NodeL2})
		s.Eng.RunUntilQuiet()
		got := byte(0xff)
		s.Seqs[0].Load(a, func(op *seq.Op) { got = op.Result })
		for i := 0; s.L2C.cache.Peek(a).V.kind() != txnGetS; i++ {
			if i == 1000 {
				t.Fatal("Fwd_GetS never sent")
			}
			s.Eng.RunUntil(s.Eng.Now() + 1)
		}
		s.Fab.Send(&coherence.Msg{Type: coherence.MInvAck, Addr: a, Src: ghost, Dst: s.L1s[0].ID()})
		panicked := func() (p any) {
			defer func() { p = recover() }()
			s.Eng.RunUntilQuiet()
			return nil
		}()
		if !mods {
			if msg, _ := panicked.(string); !strings.Contains(msg, "unexpected") {
				t.Fatalf("baseline took IS_D/InvAck: %v", panicked)
			}
			continue
		}
		if panicked != nil {
			t.Fatal(panicked)
		}
		if n := s.L1s[0].Cov.Snapshot()["IS_D/M:InvAck"]; n != 1 {
			t.Fatalf("IS_D/M:InvAck visited %d times, want 1", n)
		}
		if s.Log.Count() != 1 || s.Log.Errors[0].Code != "HOST.AckAsData" {
			t.Fatalf("errors %v, want one HOST.AckAsData", s.Log.Errors)
		}
		if got != 0 {
			t.Fatalf("load read %d, want the zero block's 0", got)
		}
		// The owner's copy closes the L2's transaction.
		s.Fab.Send(&coherence.Msg{Type: coherence.MCopyToL2, Addr: a, Src: ghost, Dst: NodeL2, Data: mem.Zero()})
		s.Eng.RunUntilQuiet()
		if n := s.Outstanding(); n != 0 {
			t.Fatalf("%d transactions outstanding after quiesce", n)
		}
	}
}

// TestEarlyUnblockCell drives SS+busy/M:Unblock while the requestor's own
// GetS is still fetching from memory. Only a GetS or GetM waits for an
// Unblock: with TxnMods this one is a HOST.L2.Unexpected error and the
// fetch completes; the baseline treats it as fatal.
func TestEarlyUnblockCell(t *testing.T) {
	const a = mem.Addr(0x5000)
	for _, mods := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.TxnMods = mods
		s := NewSystem(1, cfg, 17)
		s.Mem.StoreByte(a, 42)
		got := byte(0xff)
		s.Seqs[0].Load(a, func(op *seq.Op) { got = op.Result })
		for i := 0; ; i++ {
			if e := s.L2C.cache.Peek(a); e != nil && e.V.kind() == txnFetch {
				break
			}
			if i == 1000 {
				t.Fatal("the GetS never started its fetch")
			}
			s.Eng.RunUntil(s.Eng.Now() + 1)
		}
		s.Fab.Send(&coherence.Msg{Type: coherence.MUnblock, Addr: a, Src: s.L1s[0].ID(), Dst: NodeL2})
		panicked := func() (p any) {
			defer func() { p = recover() }()
			s.Eng.RunUntilQuiet()
			return nil
		}()
		if !mods {
			if msg, _ := panicked.(string); !strings.Contains(msg, "unexpected") {
				t.Fatalf("baseline took an Unblock during a fetch: %v", panicked)
			}
			continue
		}
		if panicked != nil {
			t.Fatal(panicked)
		}
		if n := s.L2C.Cov.Snapshot()["SS+busy/M:Unblock"]; n != 1 {
			t.Fatalf("SS+busy/M:Unblock visited %d times, want 1", n)
		}
		if s.Log.Count() != 1 || s.Log.Errors[0].Code != "HOST.L2.Unexpected" {
			t.Fatalf("errors %v, want one HOST.L2.Unexpected", s.Log.Errors)
		}
		if got != 42 {
			t.Fatalf("load read %d, want 42", got)
		}
		if n := s.Outstanding(); n != 0 {
			t.Fatalf("%d transactions outstanding after quiesce", n)
		}
	}
}

// TestInvToL2InIIAAcksTheL2: a recall that reaches a line whose
// ownership moved on while its PutM was queued is acked, since the new
// owner holds the data.
func TestInvToL2InIIAAcksTheL2(t *testing.T) {
	s := NewSystem(1, smallConfig(), 16)
	const a = mem.Addr(0xc000)
	s.Seqs[0].Store(a, 7, nil)
	run(t, s)
	// Two conflicting fills evict the dirty line into MI_A.
	s.Seqs[0].Store(a+2*64, 1, nil)
	s.Seqs[0].Store(a+4*64, 2, nil)
	l1 := s.L1s[0]
	for i := 0; l1.Buffered(a) == nil; i++ {
		if i == 1000 {
			t.Fatal("line never buffered")
		}
		s.Eng.RunUntil(s.Eng.Now() + 1)
	}
	// A Fwd_GetM for a requestor that is not there takes the line into
	// II_A (its DataOwner is dropped); the recall follows it, both ahead
	// of the WBAck on the same ordered channel.
	const ghost = coherence.NodeID(999)
	s.Fab.Send(&coherence.Msg{Type: coherence.MFwdGetM, Addr: a, Src: NodeL2, Dst: l1.ID(), Requestor: ghost})
	acks := func() uint64 { return s.Fab.StatsFor(l1.ID(), NodeL2).MsgsByType[coherence.MInvAckToL2] }
	before := acks()
	s.Fab.Send(&coherence.Msg{Type: coherence.MInvToL2, Addr: a, Src: NodeL2, Dst: l1.ID()})
	s.Eng.RunUntilQuiet()
	if n := l1.Cov.Snapshot()["II_A/M:InvToL2"]; n != 1 {
		t.Fatalf("II_A/M:InvToL2 visited %d times, want 1", n)
	}
	if n := acks() - before; n != 1 {
		t.Fatalf("%d InvAckToL2 sent, want 1", n)
	}
	if len(l1.Cov.Unexpected) != 0 || s.Outstanding() != 0 {
		t.Fatalf("unexpected %v, %d outstanding", l1.Cov.Unexpected, s.Outstanding())
	}
}

// TestInvToL2WhileGetSWaitsForData: the L2 recalls for inclusion a line
// whose GetS is still waiting for its data. The L1 acks the L2 and stays in
// IS_D, as it does in I, S, IM_AD, SM_AD and II_A; the L2 answers the GetS
// once its recall closes. A CPU-only machine with a one-set L2 reaches it.
func TestInvToL2WhileGetSWaitsForData(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 2, 2
	cfg.L2Sets, cfg.L2Ways = 1, 2
	s := NewSystem(2, cfg, 1)
	tc := tester.DefaultConfig(7)
	tc.Lines, tc.StoresPerLoc = 8, 20
	if _, err := tester.Run(s, tc); err != nil {
		t.Fatal(err)
	}
	if s.L1s[0].Cov.Snapshot()["IS_D/M:InvToL2"]+s.L1s[1].Cov.Snapshot()["IS_D/M:InvToL2"] == 0 {
		t.Fatal("no L1 took IS_D/M:InvToL2")
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	if s.Log.Count() != 0 {
		t.Fatalf("protocol errors: %v", s.Log.Errors[0])
	}
}
