package config

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"crossingguard/internal/accel"
	"crossingguard/internal/core"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
)

// containPool returns device d's two-line working set. The pools are
// pairwise disjoint AND set-disjoint in the Small MESI host L2 (4 sets,
// 2 ways: device d's two lines both map to set d and fill exactly its
// ways), so shared-cache capacity pressure — a real but pre-existing
// coupling any traffic exerts — is ruled out by construction and the
// only remaining channel between devices is the protocol machinery the
// containment property constrains.
func containPool(d int) []mem.Addr {
	base := mem.Addr(0x10000) + mem.Addr(d)*mem.BlockBytes
	return []mem.Addr{base, base + 4*mem.BlockBytes}
}

// buildContainment wires the four-device containment machine: devices
// 0, 1, and 3 run the well-behaved adversary request engine over their
// own pools; device 2 runs the given model (the flapper that will cycle
// through quarantine-recovery, or the idle stand-in that never existed
// as far as traffic is concerned).
func buildContainment(host HostKind, org Org, dev2 accel.AdvModel) *System {
	lat := DefaultLatencies()
	// The fabric draws jitter from ONE shared stream; a single draw on
	// behalf of device 2 would shift every later draw and the comparison
	// below would measure RNG coupling, not protocol coupling.
	lat.Jitter = 0
	spec := Spec{Host: host, Org: org, CPUs: 2, AccelCores: 1, Accels: 4,
		Seed: 7, Small: true, Timeout: 2000, RecallRetries: 2,
		QuarantineAfter: 10, RecoverAfter: 2000, Lat: &lat}
	spec.CustomAccel = func(s *System, slot *CustomSlot) {
		d := DeviceOf(slot.AccelID)
		// AdvSlowpoke's request engine is fully correct; its only sin is
		// late recall answers, and nothing ever recalls these disjoint
		// pools — so devices 0/1/3 are deterministic honest workloads.
		model := accel.AdvSlowpoke
		if d == 2 {
			model = dev2
		}
		SlotDevice[accel.Adversary](slot).Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, accel.AdvConfig{
			Model: model, Seed: 1000 + int64(d), Pool: containPool(d),
			Budget: 300, Gap: 8,
		})
	}
	return Build(spec)
}

// neighborSection renders every per-accelerator instrument belonging to
// devices 0, 1, and 3 as deterministic JSON — the "report section" the
// containment property pins byte-for-byte.
func neighborSection(s obs.Snapshot) string {
	keep := func(name string) bool {
		return strings.HasSuffix(name, "@a0") || strings.HasSuffix(name, "@a1") ||
			strings.HasSuffix(name, "@a3")
	}
	out := obs.Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]obs.GaugeSnapshot{},
		Histograms: map[string]obs.HistSnapshot{},
	}
	for k, v := range s.Counters {
		if keep(k) {
			out.Counters[k] = v
		}
	}
	for k, v := range s.Gauges {
		if keep(k) {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Histograms {
		if keep(k) {
			out.Histograms[k] = v
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(b)
}

func guardByTag(sys *System, tag int) *core.Guard {
	for _, g := range sys.Guards {
		if g.AccelTag == tag {
			return g
		}
	}
	return nil
}

// TestRecoveryContainment is the blast-radius proof for quarantine
// recovery: in a four-device machine, device 2's full
// fence-drain-reset-readmit cycle leaves every OTHER device's
// per-accelerator report section byte-identical to a same-seed run in
// which device 2 initiates no traffic at all. Any leak — a recall
// charged to a neighbor, a shifted latency sample, a violation counted
// against the wrong device — shows up as a byte diff.
func TestRecoveryContainment(t *testing.T) {
	orgs := []Org{OrgXGFull1L, OrgXGTxn1L, OrgXGFull2L, OrgXGTxn2L}
	for _, host := range []HostKind{HostHammer, HostMESI} {
		for _, org := range orgs {
			host, org := host, org
			t.Run(fmt.Sprintf("%v/%v", host, org), func(t *testing.T) {
				flap := buildContainment(host, org, accel.AdvFlapper)
				if !flap.Eng.RunUntil(20_000_000) {
					t.Fatal("flapper run did not drain")
				}
				idle := buildContainment(host, org, accel.AdvIdle)
				if !idle.Eng.RunUntil(20_000_000) {
					t.Fatal("idle-baseline run did not drain")
				}

				// The cycle must actually have happened, or the test
				// proves nothing.
				g2 := guardByTag(flap, 2)
				if g2 == nil {
					t.Fatal("no guard carries accel tag 2")
				}
				if g2.Recoveries < 1 {
					t.Fatalf("device 2 recovered %d times, want >=1 (quarantined=%v)",
						g2.Recoveries, g2.Quarantined)
				}
				if gi := guardByTag(idle, 2); gi.Recoveries != 0 || gi.Epoch != 0 {
					t.Fatalf("idle baseline's device 2 guard cycled (recoveries=%d epoch=%d)",
						gi.Recoveries, gi.Epoch)
				}

				a, b := neighborSection(flap.Obs.Snapshot()), neighborSection(idle.Obs.Snapshot())
				if a != b {
					al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
					for i := 0; i < len(al) && i < len(bl); i++ {
						if al[i] != bl[i] {
							t.Fatalf("neighbor report sections diverge at line %d:\n  flapper: %s\n  idle:    %s",
								i+1, al[i], bl[i])
						}
					}
					t.Fatalf("neighbor report sections diverge in length: %d vs %d lines",
						len(al), len(bl))
				}
			})
		}
	}
}
