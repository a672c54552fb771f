package explore

import (
	"fmt"
	"testing"

	"crossingguard/internal/config"
	"crossingguard/internal/sim"
)

// TestRaceSweeps runs every scenario over a grid of injection offsets for
// every guard organization and host. Each grid point is a deterministic
// run of the real implementation; a failure pinpoints the exact timing
// that breaks the protocol.
func TestRaceSweeps(t *testing.T) {
	maxOff := 40
	if testing.Short() {
		maxOff = 12
	}
	orgs := []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L, config.OrgXGFull2L, config.OrgXGTxn2L}
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range orgs {
			for _, sc := range Scenarios() {
				host, org, sc := host, org, sc
				t.Run(fmt.Sprintf("%v/%v/%s", host, org, sc.Name), func(t *testing.T) {
					spec := config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 1,
						Seed: 23, Small: true}
					res := Sweep(spec, sc, sim.Time(maxOff))
					if len(res.Failures) > 0 {
						t.Fatalf("%d/%d points failed; first: %s",
							len(res.Failures), res.Points, res.Failures[0])
					}
					if res.Points != maxOff+1 {
						t.Fatalf("swept %d points, want %d", res.Points, maxOff+1)
					}
				})
			}
		}
	}
}

// TestRaceSweepsBaselines also sweeps the non-guard organizations, so the
// scenarios themselves are validated against plain host protocols.
func TestRaceSweepsBaselines(t *testing.T) {
	maxOff := 20
	if testing.Short() {
		maxOff = 8
	}
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range []config.Org{config.OrgAccelSide, config.OrgHostSide} {
			for _, sc := range Scenarios() {
				host, org, sc := host, org, sc
				t.Run(fmt.Sprintf("%v/%v/%s", host, org, sc.Name), func(t *testing.T) {
					spec := config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 1,
						Seed: 29, Small: true}
					res := Sweep(spec, sc, sim.Time(maxOff))
					if len(res.Failures) > 0 {
						t.Fatalf("%d/%d points failed; first: %s",
							len(res.Failures), res.Points, res.Failures[0])
					}
				})
			}
		}
	}
}

// TestMultiAccelRaceSweeps is the dedicated two-accelerator
// ownership-migration sweep: every multi-device scenario, every guard
// organization, every host, across the offset grid.
func TestMultiAccelRaceSweeps(t *testing.T) {
	maxOff := 30
	if testing.Short() {
		maxOff = 10
	}
	orgs := []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L, config.OrgXGFull2L, config.OrgXGTxn2L}
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range orgs {
			for _, sc := range MultiAccelScenarios() {
				host, org, sc := host, org, sc
				t.Run(fmt.Sprintf("%v/%v/%s", host, org, sc.Name), func(t *testing.T) {
					spec := config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 1,
						Accels: 2, Seed: 31, Small: true}
					res := Sweep(spec, sc, sim.Time(maxOff))
					if len(res.Failures) > 0 {
						t.Fatalf("%d/%d points failed; first: %s",
							len(res.Failures), res.Points, res.Failures[0])
					}
					if res.Points != maxOff+1 {
						t.Fatalf("swept %d points, want %d", res.Points, maxOff+1)
					}
				})
			}
		}
	}
}
