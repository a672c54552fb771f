package config

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/hostproto/mesi"
	"crossingguard/internal/mem"
	"crossingguard/internal/seq"
	"crossingguard/internal/tester"
)

// These tests poke the guard's host-side corner branches directly with
// forged host messages: anomalies a healthy host never produces, which
// the guard must absorb without wedging (it is host hardware, but
// defensive against misconfiguration and future host changes).

func forgedSystem(host HostKind, t *testing.T) *System {
	t.Helper()
	return Build(Spec{Host: host, Org: OrgXGFull1L, CPUs: 2, AccelCores: 1,
		Seed: 71, Timeout: 10_000})
}

func TestGuardAbsorbsStrayHostResponses(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			s := forgedSystem(host, t)
			g := s.Guards[0]
			hostNode := coherence.NodeID(1)
			var stray []*coherence.Msg
			if host == HostHammer {
				stray = []*coherence.Msg{
					{Type: coherence.HWBAck, Addr: 0x1000, Src: hostNode, Dst: g.ID()},
					{Type: coherence.HMemData, Addr: 0x1040, Src: hostNode, Dst: g.ID(), Data: mem.Zero()},
					{Type: coherence.HAck, Addr: 0x1080, Src: hostNode, Dst: g.ID()},
					{Type: coherence.HNack, Addr: 0x10c0, Src: hostNode, Dst: g.ID()},
				}
			} else {
				stray = []*coherence.Msg{
					{Type: coherence.MWBAck, Addr: 0x1000, Src: hostNode, Dst: g.ID()},
					{Type: coherence.MDataS, Addr: 0x1040, Src: hostNode, Dst: g.ID(), Data: mem.Zero()},
					{Type: coherence.MInvAck, Addr: 0x1080, Src: hostNode, Dst: g.ID()},
				}
			}
			for _, m := range stray {
				s.Fab.Send(m)
			}
			s.Eng.RunUntilQuiet()
			if s.Log.Count() == 0 {
				t.Fatal("stray host responses not reported")
			}
			// The guard must remain fully functional afterwards.
			var got byte
			s.AccelSeqs[0].Store(0x2000, 3, func(*seq.Op) {
				s.AccelSeqs[0].Load(0x2000, func(op *seq.Op) { got = op.Result })
			})
			s.Eng.RunUntilQuiet()
			if got != 3 {
				t.Fatalf("guard wedged after stray responses: read %d", got)
			}
			if g.Outstanding() != 0 {
				t.Fatal("guard transactions leaked")
			}
		})
	}
}

// TestGuardAnswersForwardForUnheldBlock: the host (mis)believes the guard
// owns a block the accelerator never touched. The Full State guard must
// keep the host alive with zero data and report the inconsistency.
func TestGuardAnswersForwardForUnheldBlock(t *testing.T) {
	s := forgedSystem(HostMESI, t)
	g := s.Guards[0]
	// Forge an owner-forward straight at the guard; the "requestor" is a
	// ghost so its zero-data answer simply leaves the system.
	s.Fab.Send(&coherence.Msg{Type: coherence.MFwdGetM, Addr: 0x3000,
		Src: 1, Dst: g.ID(), Requestor: 999})
	s.Eng.RunUntil(2_000)
	if s.Log.ByCode["XG.G2a"] == 0 {
		t.Fatalf("forward-to-non-owner not reported: %v", s.Log.ByCode)
	}
	// The requestor received *something* (zero data), so it is not
	// stranded — drain whatever transaction state the forgery created.
	s.Eng.RunUntilQuiet()
}

// TestStressLarger runs the §4.1 tester on wider machines (4 CPUs, 4
// accelerator cores) for the guard organizations.
func TestStressLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("long stress")
	}
	for _, host := range []HostKind{HostHammer, HostMESI} {
		for _, org := range []Org{OrgXGFull1L, OrgXGTxn2L} {
			host, org := host, org
			t.Run(fmt.Sprintf("%v/%v", host, org), func(t *testing.T) {
				s := Build(Spec{Host: host, Org: org, CPUs: 4, AccelCores: 4,
					Seed: 83, Small: true})
				cfg := tester.DefaultConfig(84)
				cfg.StoresPerLoc = 40
				cfg.Deadline = 200_000_000
				res, err := tester.Run(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stores == 0 {
					t.Fatal("no work done")
				}
				if s.Log.Count() != 0 {
					t.Fatalf("errors: %v", s.Log.Errors[0])
				}
			})
		}
	}
}

// TestAuditQuiesceHygiene: Audit names a guard that still holds a parked
// request or a line with open work, and a fabric that still holds a
// delayed send — all are zero at a real quiesce, so any of them means the
// run was cut short or a wake was lost.
func TestAuditQuiesceHygiene(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			s := Build(Spec{Host: host, Org: OrgXGTxn1L, CPUs: 2, AccelCores: 1, Seed: 71})
			g := s.Guards[0]
			const line = 0x3000
			s.AccelSeqs[0].Store(line, 5, nil)
			quiesce(t, s)

			s.Fab.SendAfter(10, &coherence.Msg{Type: coherence.HAck, Addr: line, Src: g.ID(), Dst: 9999}, nil)
			if err := s.Audit(); err == nil || !strings.Contains(err.Error(), "delayed sends still scheduled") {
				t.Fatalf("audit with a delayed send pending: %v", err)
			}
			s.Eng.RunUntilQuiet() // the send fires into an unregistered node and is dropped
			if err := s.Audit(); err != nil {
				t.Fatalf("audit after the delayed send fired: %v", err)
			}

			// A CPU load pulls the line out of the accelerator: step until
			// the guard's recall is open, then hand it a Get for that line.
			s.CPUSeqs[0].Load(line, nil)
			for g.Outstanding() == 0 {
				s.Eng.RunUntil(s.Eng.Now() + 1)
			}
			if err := s.Audit(); err == nil || !strings.Contains(err.Error(), "has open work at quiesce") {
				t.Fatalf("audit with a recall open: %v", err)
			}
			g.Recv(&coherence.Msg{Type: coherence.AGetS, Addr: line, Src: g.AccelID(), Dst: g.ID()})
			if g.ParkedNow() != 1 {
				t.Fatalf("Get during the recall: ParkedNow = %d, want 1", g.ParkedNow())
			}
			if err := s.Audit(); err == nil || !strings.Contains(err.Error(), "still parked at quiesce") {
				t.Fatalf("audit with a parked request: %v", err)
			}
		})
	}
}

// TestAuditNamesOpenTxn: a transaction record a cache handed out and never
// took back, which no line points to, fails the audit with the cache's
// name, though every line is stable and every queue is empty.
func TestAuditNamesOpenTxn(t *testing.T) {
	s := Build(Spec{Host: HostMESI, Org: OrgXGFull1L, CPUs: 2, AccelCores: 1, Seed: 71})
	s.CPUSeqs[0].Store(0x3000, 5, nil)
	quiesce(t, s)
	if err := s.Audit(); err != nil {
		t.Fatalf("audit at quiesce: %v", err)
	}
	s.caches[1].cacheView.(*mesi.L1).Txns.Get()
	const want = "mesi.L1[1]: 1 transactions open at quiesce"
	if err := s.Audit(); err == nil || err.Error() != want {
		t.Fatalf("audit with a leaked record = %v, want %q", err, want)
	}
}

// TestAuditGuardTableMismatchStable: when the Full State table and the
// accelerator disagree about several lines, the audit reports the one at
// the lowest address, the same on every run — a shard's failure artifact
// must not depend on map iteration order.
func TestAuditGuardTableMismatchStable(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			s := Build(Spec{Host: host, Org: OrgXGFull1L, CPUs: 2, AccelCores: 1, Seed: 71})
			for i := 0; i < 8; i++ {
				s.AccelSeqs[0].Store(mem.Addr(0x3000+i*mem.BlockBytes), byte(i), nil)
			}
			quiesce(t, s)
			if n := s.Guards[0].TableEntries(); n != 8 {
				t.Fatalf("guard table holds %d lines, want 8", n)
			}
			// Wrap the registered accelerator L1 so it lies about its lines.
			lying := &lyingCopy{}
			for i, c := range s.caches {
				if c.ID() == s.Guards[0].AccelID() {
					lying.cacheView = c.cacheView
					s.caches[i].cacheView = lying
				}
			}
			cases := []struct {
				name      string
				hide, add []mem.Addr
				want      string
			}{
				{"two table lines the accelerator lacks", []mem.Addr{0x3140, 0x3080}, nil,
					"table records 0x3080 but the accelerator does not hold it"},
				{"two accelerator lines the table lacks", nil, []mem.Addr{0x5040, 0x5000},
					"accelerator holds 0x5000 but the guard table does not"},
			}
			for _, c := range cases {
				lying.hide, lying.add = c.hide, c.add
				for run := 0; run < 50; run++ {
					err := s.auditGuardTables()
					if err == nil || !strings.Contains(err.Error(), c.want) {
						t.Fatalf("%s, run %d: audit says %v, want %q", c.name, run, err, c.want)
					}
				}
			}
		})
	}
}

// strayCopy is a cache that claims one line, whatever the protocol says:
// the registry takes any cacheView, so a test can stand one beside the
// real caches.
type strayCopy struct {
	addr mem.Addr
	lvl  chassis.Level
	data *mem.Block
}

func (strayCopy) ID() coherence.NodeID          { return 9999 }
func (strayCopy) Name() string                  { return "stray" }
func (strayCopy) Outstanding() int              { return 0 }
func (strayCopy) OpenTxns() int                 { return 0 }
func (strayCopy) WBPending() int                { return 0 }
func (strayCopy) Coverage() *coherence.Coverage { return nil }
func (strayCopy) Restart()                      {}
func (c strayCopy) Held(fn chassis.HeldFunc)    { fn(c.addr, c.lvl, c.data, false) }

// lyingCopy wraps a registered cache and misreports its lines: it hides
// the lines in hide and claims the lines in add, shared.
type lyingCopy struct {
	cacheView
	hide, add []mem.Addr
}

func (c *lyingCopy) Held(fn chassis.HeldFunc) {
	c.cacheView.Held(func(addr mem.Addr, lvl chassis.Level, data *mem.Block, dirty bool) {
		if !slices.Contains(c.hide, addr) {
			fn(addr, lvl, data, dirty)
		}
	})
	for _, addr := range c.add {
		fn(addr, chassis.Shared, nil, false)
	}
}

// TestAuditSharersOnlyBesideOwned pins the SWMR rule on the MOESI host: a
// sharer may sit beside an O owner and beside no other. The audit once
// tolerated sharers beside any M-or-O owner on hammer, so "M beside
// sharers" passed it.
func TestAuditSharersOnlyBesideOwned(t *testing.T) {
	const addr = mem.Addr(0x7000)
	owner := func(load bool) *System {
		s := Build(Spec{Host: HostHammer, Org: OrgHostSide, CPUs: 2, AccelCores: 1, Seed: 5})
		s.CPUSeqs[0].Store(addr, 7, nil)
		quiesce(t, s)
		if load { // a second reader takes the owner from M to O
			s.CPUSeqs[1].Load(addr, nil)
			quiesce(t, s)
		}
		return s
	}
	held := func(s *System) (lvl chassis.Level, data *mem.Block) {
		// CPU 0's cache is the first one Build registers.
		s.caches[0].Held(func(a mem.Addr, l chassis.Level, d *mem.Block, _ bool) {
			if a == addr {
				lvl, data = l, d
			}
		})
		return
	}

	s := owner(false)
	lvl, data := held(s)
	if lvl != chassis.Modified {
		t.Fatalf("owner holds level %d after a store, want Modified", lvl)
	}
	s.register(strayCopy{addr, chassis.Shared, data}, guardedCache)
	if err := s.Audit(); err == nil || !strings.Contains(err.Error(), "owns exclusively beside 1 sharers") {
		t.Fatalf("audit of M beside a sharer = %v, want an SWMR violation", err)
	}

	s = owner(true) // O beside CPU 1's real S copy: quiesce audited it clean
	if lvl, _ := held(s); lvl != chassis.Owned {
		t.Fatalf("owner holds level %d after a remote load, want Owned", lvl)
	}
}

// TestAuditErrorStable: of several violating lines, Audit reports the one
// at the lowest address, the same on every call — a shard's failure
// artifact must not depend on map iteration order. Three stray M copies
// sit beside a hammer owner's three lines.
func TestAuditErrorStable(t *testing.T) {
	s := Build(Spec{Host: HostHammer, Org: OrgHostSide, CPUs: 2, AccelCores: 1, Seed: 5})
	lines := []mem.Addr{0x7080, 0x7000, 0x7040}
	for _, addr := range lines {
		s.CPUSeqs[0].Store(addr, 7, nil)
	}
	quiesce(t, s)
	for _, addr := range lines {
		s.register(strayCopy{addr, chassis.Modified, nil}, guardedCache)
	}
	const want = "SWMR violated at 0x7000: hammer.C[0] and stray both own"
	for call := 0; call < 50; call++ {
		if err := s.Audit(); err == nil || err.Error() != want {
			t.Fatalf("call %d: audit = %v, want %q", call, err, want)
		}
	}
}

// TestSharedL2MGrantIsDirty: an accelerator L2 holding an M grant reports
// the line dirty (chassis.HeldFunc: modified relative to the next level)
// before any inner L1 writes it back. Its data came from a CPU's dirty
// copy, which the host's own copy of the line does not have.
func TestSharedL2MGrantIsDirty(t *testing.T) {
	const addr = mem.Addr(0x7000)
	s := Build(Spec{Host: HostMESI, Org: OrgXGFull2L, CPUs: 2, AccelCores: 2, Seed: 5})
	s.CPUSeqs[0].Store(addr, 7, nil)
	quiesce(t, s)
	s.AccelSeqs[0].Store(addr, 9, nil)
	quiesce(t, s)
	found, dirty := false, false
	s.AccelL2.Held(func(a mem.Addr, _ chassis.Level, _ *mem.Block, d bool) {
		if a == addr {
			found, dirty = true, d
		}
	})
	if !found || !dirty {
		t.Fatalf("after a CPU store and an accelerator store the accelerator L2 holds %v: %v, dirty: %v; want both",
			addr, found, dirty)
	}
}

// TestAuditMachineScopes: Audit applies the ownership and inclusion rules
// on a real machine, both over the host's home and inside a two-level
// device, where the device's shared L2 is its inner L1s' home.
func TestAuditMachineScopes(t *testing.T) {
	const addr, elsewhere = mem.Addr(0x7000), mem.Addr(0x9000)
	for _, c := range []struct {
		name  string
		inner bool
		stray strayCopy
		want  string
	}{
		{"owner the host does not record", false, strayCopy{elsewhere, chassis.Exclusive, nil},
			"0x9000: stray owns but its home records owner -1"},
		{"line missing from the host's L2", false, strayCopy{elsewhere, chassis.Shared, nil},
			"inclusion broken at 0x9000: stray holds it but its home does not"},
		{"second inner owner", true, strayCopy{addr, chassis.Modified, nil}, "SWMR violated at 0x7000"},
		{"line missing from the shared L2", true, strayCopy{elsewhere, chassis.Shared, nil},
			"inclusion broken at 0x9000: stray holds it but its home does not"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := Build(Spec{Host: HostMESI, Org: OrgXGFull2L, CPUs: 2, AccelCores: 2, Seed: 5})
			s.AccelSeqs[0].Store(addr, 9, nil)
			quiesce(t, s)
			if c.inner {
				sc := &s.innerScopes[0]
				sc.Caches = append(sc.Caches, chassis.Claimant{Holder: c.stray, As: c.stray.ID()})
			} else {
				s.register(c.stray, guardedCache)
			}
			if err := s.Audit(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("audit = %v, want %q", err, c.want)
			}
		})
	}
}
