package fuzz

import (
	"fmt"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/mem"
	"crossingguard/internal/perm"
	"crossingguard/internal/seq"
	"crossingguard/internal/tester"
)

// hostView adapts a fuzzed system so the paper's stress tester drives the
// CPUs only and validates only host-side health.
type hostView struct{ *config.System }

func (h hostView) Sequencers() []*seq.Sequencer { return h.CPUSeqs }
func (h hostView) Outstanding() int             { return h.HostOutstanding() }
func (h hostView) Audit() error                 { return h.AuditHostOnly() }

func pool() []mem.Addr {
	var p []mem.Addr
	for i := 0; i < 8; i++ {
		p = append(p, mem.Addr(0x10000+i*mem.BlockBytes))
	}
	return p
}

// buildFuzzed builds an XG system whose accelerator is an Attacker.
func buildFuzzed(host config.HostKind, org config.Org, seed int64, policy InvPolicy,
	hostTypes bool) (*config.System, *Attacker) {
	return buildFuzzedPerms(host, org, seed, policy, hostTypes, nil)
}

func buildFuzzedPerms(host config.HostKind, org config.Org, seed int64, policy InvPolicy,
	hostTypes bool, perms *perm.Table) (*config.System, *Attacker) {
	var att *Attacker
	spec := config.Spec{
		Host: host, Org: org, CPUs: 2, AccelCores: 1, Seed: seed, Small: true,
		Timeout: 5000, Perms: perms,
		CustomAccel: func(s *config.System, slot *config.CustomSlot) {
			att = config.SlotDevice[Attacker](slot)
			att.Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, seed+1, pool())
			att.Policy = policy
			att.IncludeHostTypes = hostTypes
			att.NilDataProb = 0.1
		},
	}
	return config.Build(spec), att
}

// TestFuzzSafety is the paper's §4.2 experiment: stream random coherence
// messages into the guard while the CPUs run the random workload. The
// host must neither crash (panic) nor deadlock and its structural audit
// must pass — for every host protocol and guard variant.
//
// Two variants, matching the paper's threat model:
//   - shared: the attacker has (implicit) write permission to the lines
//     the CPUs use, so it may legitimately corrupt their *values*
//     (§2.2.1) — value checks are off, liveness and structure enforced;
//   - confined: a permission table denies the attacker those pages, so
//     CPU data must additionally stay bit-exact (Guarantee 0 protects
//     data, not just liveness).
func TestFuzzSafety(t *testing.T) {
	orgs := []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L, config.OrgXGFull2L, config.OrgXGTxn2L}
	seeds := []int64{1}
	if !testing.Short() {
		seeds = []int64{1, 2, 3, 4}
	}
	for _, confined := range []bool{false, true} {
		variant := map[bool]string{false: "shared", true: "confined"}[confined]
		for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
			for _, org := range orgs {
				for _, seed := range seeds {
					host, org, seed, confined := host, org, seed, confined
					t.Run(fmt.Sprintf("%s/%v/%v/seed%d", variant, host, org, seed), func(t *testing.T) {
						var perms *perm.Table
						if confined {
							perms = perm.NewTable() // denies everything
						}
						s, att := buildFuzzedPerms(host, org, seed, InvRandom, true, perms)
						att.Rampage(2000, 40)
						cfg := tester.DefaultConfig(seed * 31)
						cfg.StoresPerLoc = 25
						cfg.BaseAddr = 0x10000 // same lines the attacker hits
						cfg.Deadline = 60_000_000
						cfg.SkipValueChecks = !confined
						res, err := tester.Run(hostView{s}, cfg)
						if err != nil {
							t.Fatalf("host failed under fuzzing: %v", err)
						}
						if res.Stores == 0 {
							t.Fatal("tester did nothing")
						}
						if att.Sent == 0 {
							t.Fatal("attacker did nothing")
						}
						// The attack must have been *detected*, not silently
						// absorbed (stray responses, bad types, etc.).
						if s.Log.Count() == 0 {
							t.Error("no violations reported despite rampage")
						}
						t.Logf("attacker sent %d msgs; %d grants, %d invs; %d violations logged",
							att.Sent, att.Grants, att.Invs, s.Log.Count())
					})
				}
			}
		}
	}
}

// TestFuzzBoundaryRejectsHostTypes checks that raw host-protocol messages
// from the accelerator never cross the guard.
func TestFuzzBoundaryRejectsHostTypes(t *testing.T) {
	s, att := buildFuzzed(config.HostHammer, config.OrgXGFull1L, 7, InvCorrectAck, false)
	att.Send(coherence.HData, 0x10000, nil)
	att.Send(coherence.MUnblock, 0x10040, nil)
	s.Eng.RunUntilQuiet()
	if got := s.Log.ByCode["XG.BadMessage"]; got != 2 {
		t.Fatalf("BadMessage violations = %d, want 2", got)
	}
	if s.HDir.Outstanding() != 0 {
		t.Fatal("forged host message disturbed the directory")
	}
}

// TestRampageRejectsNegativeCount: a rampage stops when its count of
// messages left reaches zero, so a negative count would never stop.
func TestRampageRejectsNegativeCount(t *testing.T) {
	_, att := buildFuzzed(config.HostHammer, config.OrgXGFull1L, 7, InvCorrectAck, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Rampage(-1, 40) did not panic")
		}
	}()
	att.Rampage(-1, 40)
}

// TestGuaranteeClauses violates each Figure 1 clause in isolation and
// checks the guard detects it with the right code while the host stays
// healthy.
func TestGuaranteeClauses(t *testing.T) {
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			t.Run("G1b-duplicate-request", func(t *testing.T) {
				s, att := buildFuzzed(host, config.OrgXGFull1L, 11, InvCorrectAck, false)
				att.Send(coherence.AGetS, 0x10000, nil)
				att.Send(coherence.AGetS, 0x10000, nil) // duplicate while open
				s.Eng.RunUntilQuiet()
				if s.Log.ByCode["XG.G1b"] != 1 {
					t.Fatalf("G1b count = %d; log: %v", s.Log.ByCode["XG.G1b"], s.Log.Errors)
				}
				if att.Grants != 1 {
					t.Fatalf("grants = %d, want exactly 1", att.Grants)
				}
			})
			t.Run("G1a-put-without-block", func(t *testing.T) {
				s, att := buildFuzzed(host, config.OrgXGFull1L, 12, InvCorrectAck, false)
				att.Send(coherence.APutM, 0x10000, mem.Zero())
				s.Eng.RunUntilQuiet()
				if s.Log.ByCode["XG.G1a"] != 1 {
					t.Fatalf("G1a count = %d; log: %v", s.Log.ByCode["XG.G1a"], s.Log.Errors)
				}
				// Every request gets exactly one response (the paper's
				// interface contract): the bogus Put is still acked.
				if att.WBAcks != 1 {
					t.Fatalf("WBAcks = %d, want 1", att.WBAcks)
				}
			})
			t.Run("G2b-response-without-request", func(t *testing.T) {
				s, att := buildFuzzed(host, config.OrgXGFull1L, 13, InvCorrectAck, false)
				att.Send(coherence.AInvAck, 0x10000, nil)
				att.Send(coherence.ADirtyWB, 0x10040, mem.Zero())
				s.Eng.RunUntilQuiet()
				if s.Log.ByCode["XG.G2b"] != 2 {
					t.Fatalf("G2b count = %d; log: %v", s.Log.ByCode["XG.G2b"], s.Log.Errors)
				}
			})
			t.Run("G2a-owner-acks-invalidate", func(t *testing.T) {
				// Acquire M properly, then a CPU writes the same line;
				// the guard invalidates; the attacker answers InvAck
				// although it owns the block. Full State must correct it
				// to a (zero-block) writeback and the CPU must complete.
				s, att := buildFuzzed(host, config.OrgXGFull1L, 14, InvAckAlways, false)
				att.Send(coherence.AGetM, 0x10000, nil)
				s.Eng.RunUntilQuiet()
				if att.Grants != 1 {
					t.Fatalf("setup failed: grants = %d", att.Grants)
				}
				done := false
				s.CPUSeqs[0].Store(0x10000, 9, func(*seq.Op) { done = true })
				s.Eng.RunUntilQuiet()
				if !done {
					t.Fatal("CPU store never completed")
				}
				if s.Log.ByCode["XG.G2a"] != 1 {
					t.Fatalf("G2a count = %d; log: %v", s.Log.ByCode["XG.G2a"], s.Log.Errors)
				}
				if err := s.AuditHostOnly(); err != nil {
					t.Fatal(err)
				}
			})
			t.Run("G2c-timeout", func(t *testing.T) {
				// The attacker acquires M and then ignores the
				// invalidate; the guard must answer on its behalf after
				// the timeout so the CPU completes.
				s, att := buildFuzzed(host, config.OrgXGFull1L, 15, InvIgnore, false)
				att.Send(coherence.AGetM, 0x10000, nil)
				s.Eng.RunUntilQuiet()
				done := false
				start := s.Eng.Now()
				s.CPUSeqs[0].Store(0x10000, 9, func(*seq.Op) { done = true })
				s.Eng.RunUntilQuiet()
				if !done {
					t.Fatal("CPU store never completed after accelerator went silent")
				}
				if s.Log.ByCode["XG.G2c"] != 1 {
					t.Fatalf("G2c count = %d; log: %v", s.Log.ByCode["XG.G2c"], s.Log.Errors)
				}
				if lat := s.Eng.Now() - start; lat < 5000 {
					t.Fatalf("store completed in %d ticks; should have waited for the %d-tick timeout", lat, 5000)
				}
			})
		})
	}
}

// TestGuarantee0Permissions checks Guarantee 0 (page permissions) for
// both guard variants: no-access pages are unreachable, read-only pages
// reject exclusive requests, and a correct accelerator can still read
// read-only data.
func TestGuarantee0Permissions(t *testing.T) {
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L} {
			host, org := host, org
			t.Run(fmt.Sprintf("%v/%v", host, org), func(t *testing.T) {
				var att *Attacker
				perms := permTable()
				spec := config.Spec{
					Host: host, Org: org, CPUs: 1, AccelCores: 1, Seed: 21,
					Perms: perms, Timeout: 5000,
					CustomAccel: func(s *config.System, slot *config.CustomSlot) {
						att = config.SlotDevice[Attacker](slot)
						att.Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, 22, pool())
						att.Policy = InvCorrectAck
					},
				}
				s := config.Build(spec)
				// 0a: no access at all.
				att.Send(coherence.AGetS, noAccessAddr, nil)
				// 0b: write to a read-only page.
				att.Send(coherence.AGetM, roAddr, nil)
				att.Send(coherence.APutM, roAddr, mem.Zero())
				// Legal: read a read-only page.
				att.Send(coherence.AGetS, roAddr+64, nil)
				// Legal: write a read-write page.
				att.Send(coherence.AGetM, rwAddr, nil)
				s.Eng.RunUntilQuiet()
				if s.Log.ByCode["XG.G0a"] != 1 {
					t.Errorf("G0a count = %d", s.Log.ByCode["XG.G0a"])
				}
				if s.Log.ByCode["XG.G0b"] != 2 {
					t.Errorf("G0b count = %d", s.Log.ByCode["XG.G0b"])
				}
				if att.Grants != 2 {
					t.Errorf("legal requests granted = %d, want 2", att.Grants)
				}
			})
		}
	}
}

const (
	noAccessAddr = mem.Addr(0x30000)
	roAddr       = mem.Addr(0x31000)
	rwAddr       = mem.Addr(0x32000)
)

func permTable() *perm.Table {
	t := perm.NewTable()
	t.GrantRange(0x10000, 0x1000, perm.ReadWrite) // the attacker's pool
	t.GrantRange(roAddr, 0x1000, perm.ReadOnly)
	t.GrantRange(rwAddr, 0x1000, perm.ReadWrite)
	return t
}

// TestSnoopFiltering (paper §3.2): the guard answers host snoops for
// blocks the accelerator cannot access without consulting it, closing the
// coherence side channel and saving crossings.
func TestSnoopFiltering(t *testing.T) {
	for _, org := range []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L} {
		org := org
		t.Run(org.String(), func(t *testing.T) {
			var att *Attacker
			perms := permTable()
			spec := config.Spec{
				Host: config.HostHammer, Org: org, CPUs: 2, AccelCores: 1,
				Seed: 41, Perms: perms, Timeout: 5000,
				CustomAccel: func(s *config.System, slot *config.CustomSlot) {
					att = config.SlotDevice[Attacker](slot)
					att.Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, 42, pool())
					att.Policy = InvCorrectAck
				},
			}
			s := config.Build(spec)
			// CPU activity on a page the accelerator cannot access: the
			// hammer host broadcasts to the guard, which must answer
			// without a single message to the accelerator.
			s.CPUSeqs[0].Store(noAccessAddr, 1, nil)
			s.Eng.RunUntilQuiet()
			s.CPUSeqs[1].Store(noAccessAddr, 2, nil)
			s.Eng.RunUntilQuiet()
			if att.Invs != 0 {
				t.Fatalf("accelerator observed %d invalidations for an inaccessible page (side channel)", att.Invs)
			}
			if s.Guards[0].SnoopsFiltered == 0 {
				t.Fatal("no snoops were filtered")
			}
		})
	}
}
