package config

import (
	"fmt"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/core"
	"crossingguard/internal/mem"
	"crossingguard/internal/perm"
	"crossingguard/internal/seq"
)

const roPage = mem.Addr(0x50000)

func roSystem(host HostKind, org Org, seed int64) *System {
	perms := perm.NewTable()
	perms.GrantRange(roPage, mem.PageBytes, perm.ReadOnly)
	perms.GrantRange(0x60000, mem.PageBytes, perm.ReadWrite)
	return Build(Spec{Host: host, Org: org, CPUs: 2, AccelCores: 1, Seed: seed,
		Perms: perms, Timeout: 20_000})
}

// TestReadOnlyPageFlow covers Guarantee 0b end to end for both guard
// variants: the accelerator can read a read-only page (even when the
// host would grant exclusivity), can never dirty it, and the CPUs see
// consistent data throughout.
func TestReadOnlyPageFlow(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		for _, org := range []Org{OrgXGFull1L, OrgXGTxn1L} {
			host, org := host, org
			t.Run(fmt.Sprintf("%v/%v", host, org), func(t *testing.T) {
				s := roSystem(host, org, 31)
				s.Mem.StoreByte(roPage, 123) // initialized read-only data

				// The accelerator reads the RO page while NO other cache
				// has the block — the dangerous case where unmodified
				// hosts grant E/M ownership.
				var got byte
				s.AccelSeqs[0].Load(roPage, func(op *seq.Op) { got = op.Result })
				quiesce(t, s)
				if got != 123 {
					t.Fatalf("accel read %d, want 123", got)
				}
				if s.Log.Count() != 0 {
					t.Fatalf("legal RO read reported errors: %v", s.Log.Errors[0])
				}

				// The guard must never record an ownable grant for the
				// accelerator on this page.
				s.Guards[0].VisitBlocks(func(a mem.Addr, accelGrant, hostGrant core.Grant, hasCopy bool) {
					if a.Page() != roPage.Page() {
						return
					}
					if accelGrant != core.GrantS {
						t.Errorf("accelerator granted %v on a read-only page", accelGrant)
					}
					if org.Mode() == core.FullState && hostGrant != core.GrantS && !hasCopy {
						t.Errorf("host grant %v held without a trusted copy", hostGrant)
					}
				})

				// A CPU reads the same line: data must be served
				// correctly whatever the guard's host-level state is.
				var cpuGot byte
				s.CPUSeqs[0].Load(roPage, func(op *seq.Op) { cpuGot = op.Result })
				quiesce(t, s)
				if cpuGot != 123 {
					t.Fatalf("CPU read %d through the RO dance, want 123", cpuGot)
				}
			})
		}
	}
}

// TestFullStateTrustedCopyServesForwards checks the §2.3.1 mechanism
// specifically: with an unmodified host, the Full State guard accepts an
// exclusive grant for a read-only block, keeps a trusted data copy, and
// answers later host forwards from that copy — the accelerator is never
// asked to supply data it could have corrupted.
func TestFullStateTrustedCopyServesForwards(t *testing.T) {
	s := roSystem(HostHammer, OrgXGFull1L, 33)
	s.Mem.StoreByte(roPage+8, 77)

	var got byte
	s.AccelSeqs[0].Load(roPage+8, func(op *seq.Op) { got = op.Result })
	quiesce(t, s)
	if got != 77 {
		t.Fatalf("accel read %d", got)
	}
	// The Full State guard used a plain GetS and, with no other sharers,
	// was granted ownership: it must be holding a copy.
	copies := 0
	s.Guards[0].VisitBlocks(func(a mem.Addr, _, hostGrant core.Grant, hasCopy bool) {
		if a == (roPage+8).Line() && hasCopy {
			copies++
			if hostGrant == core.GrantS {
				t.Error("copy kept although the host granted only S")
			}
		}
	})
	if copies != 1 {
		t.Fatalf("trusted copies held = %d, want 1 (unmodified-host §2.3.1 path)", copies)
	}

	// A CPU read triggers Fwd_GetS to the guard (recorded owner); it
	// must be served from the copy without consulting the accelerator.
	before := s.Guards[0].SnoopsForwarded
	var cpuGot byte
	s.CPUSeqs[1].Load(roPage+8, func(op *seq.Op) { cpuGot = op.Result })
	quiesce(t, s)
	if cpuGot != 77 {
		t.Fatalf("CPU read %d, want 77", cpuGot)
	}
	if s.Guards[0].SnoopsForwarded != before {
		t.Fatal("guard consulted the accelerator despite holding a trusted copy")
	}
	if s.Guards[0].SnoopsFiltered == 0 {
		t.Fatal("copy-served forward not counted as filtered")
	}
}

// TestTransactionalUsesNonUpgradableGetS checks the §3.2 alternative: the
// Transactional guard requests with the host's non-upgradable GetS, so
// the host never makes it an owner of a read-only block in the first
// place — and it therefore holds no copies.
func TestTransactionalUsesNonUpgradableGetS(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			s := roSystem(host, OrgXGTxn1L, 35)
			s.Mem.StoreByte(roPage, 5)
			var got byte
			s.AccelSeqs[0].Load(roPage, func(op *seq.Op) { got = op.Result })
			quiesce(t, s)
			if got != 5 {
				t.Fatalf("read %d", got)
			}
			// The host must not have recorded the guard as owner.
			if s.HDir != nil {
				if o := s.HDir.Owner(roPage); o == s.Guards[0].ID() {
					t.Fatal("non-upgradable GetS still produced guard ownership")
				}
			} else {
				s.ML2.VisitOwned(func(a mem.Addr, owner coherence.NodeID) {
					if a == roPage.Line() && owner == s.Guards[0].ID() {
						t.Error("non-upgradable GetInstr still produced guard ownership")
					}
				})
			}
			// And the Transactional guard keeps no block copies at all.
			if s.Guards[0].TableEntries() != 0 {
				t.Fatal("Transactional guard holds block state")
			}
		})
	}
}
