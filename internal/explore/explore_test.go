package explore

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"crossingguard/internal/config"
	"crossingguard/internal/sim"
)

var xgOrgs = []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L, config.OrgXGFull2L, config.OrgXGTxn2L}

// sweeps is every race sweep, keyed by the test that runs it. Each row
// sweeps its scenarios on every organization it names, on both hosts, at
// every choice vector in [0, bound]: bound+1 points for a scenario that
// asks one choice, (bound+1)² for three-writers. Each point is a
// deterministic run of the real implementation; a failure pinpoints the
// exact timing that breaks the protocol.
var sweeps = map[string]struct {
	scenarios []Scenario
	orgs      []config.Org
	seed      int64
	accels    int
	bound     sim.Time
}{
	// The named races on every guard organization.
	"TestRaceSweeps": {Scenarios(), xgOrgs, 23, 0, 40},
	// The same races on the guard-free organizations, so the scenarios
	// themselves are validated against plain host protocols.
	"TestRaceSweepsBaselines": {Scenarios(), []config.Org{config.OrgAccelSide, config.OrgHostSide}, 29, 0, 20},
	// Two-accelerator ownership migration.
	"TestMultiAccelRaceSweeps": {MultiAccelScenarios(), xgOrgs, 31, 2, 30},
	// The hostile burst against the in-flight shared grant: each point
	// ends with the guard quarantined AND the host healthy, and a
	// post-quarantine store/load round trip returns fresh data through
	// the recall path.
	"TestQuarantineVsGrantSweep": {[]Scenario{QuarantineScenario()}, xgOrgs, 31, 0, 60},
	// The hostile burst against device 0's ownership migration: each
	// point ends with the hostile guard reintegrated under a fresh epoch
	// and served again, and the neighbor's migration byte-correct — the
	// explore-level statement of blast-radius containment.
	"TestRecoveryVsNeighborSweep": {[]Scenario{RecoveryScenario()}, xgOrgs, 37, 0, 60},
}

func TestRaceSweeps(t *testing.T)              { testSweeps(t) }
func TestRaceSweepsBaselines(t *testing.T)     { testSweeps(t) }
func TestMultiAccelRaceSweeps(t *testing.T)    { testSweeps(t) }
func TestQuarantineVsGrantSweep(t *testing.T)  { testSweeps(t) }
func TestRecoveryVsNeighborSweep(t *testing.T) { testSweeps(t) }

// testSweeps runs the row of sweeps keyed by t's name.
func testSweeps(t *testing.T) {
	row, ok := sweeps[t.Name()]
	if !ok {
		t.Fatalf("no sweep row for %s", t.Name())
	}
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range row.orgs {
			t.Run(fmt.Sprintf("%v/%v", host, org), func(t *testing.T) {
				spec := config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 1, Accels: row.accels,
					Seed: row.seed, Small: true}
				for _, sc := range row.scenarios {
					t.Run(sc.Name, func(t *testing.T) {
						res := Sweep(spec, sc, row.bound)
						if len(res.Failures) > 0 {
							t.Fatalf("%d/%d points failed; first: %s",
								len(res.Failures), res.Points, res.Failures[0])
						}
						want := int(row.bound) + 1
						if sc.Name == "three-writers" {
							want *= want
						}
						if res.Points != want {
							t.Fatalf("swept %d points, want %d", res.Points, want)
						}
					})
				}
			})
		}
	}
}

// TestSweepEnumeratesChoices drives Sweep with a scenario that asks a
// second choice only when its first answer is odd: the sweep must visit
// every vector that scenario can ask, in lexicographic order, and name
// the vector of a failing point.
func TestSweepEnumeratesChoices(t *testing.T) {
	var visited [][]sim.Time
	sc := Scenario{Name: "odd-asks-twice", Run: func(_ *config.System, choose Choose) func() error {
		vec := []sim.Time{choose()}
		if vec[0]%2 == 1 {
			vec = append(vec, choose())
		}
		visited = append(visited, vec)
		return func() error {
			if slices.Equal(vec, []sim.Time{3, 1}) {
				return errors.New("planted failure")
			}
			return nil
		}
	}}
	spec := config.Spec{Host: config.HostMESI, Org: config.OrgXGFull1L, CPUs: 2, AccelCores: 1, Small: true}
	res := Sweep(spec, sc, 3)
	want := [][]sim.Time{{0}, {1, 0}, {1, 1}, {1, 2}, {1, 3}, {2}, {3, 0}, {3, 1}, {3, 2}, {3, 3}}
	if !reflect.DeepEqual(visited, want) || res.Points != len(want) {
		t.Fatalf("swept %d points %v, want %v", res.Points, visited, want)
	}
	if len(res.Failures) != 1 || res.Failures[0] != "odd-asks-twice choices=[3 1]: planted failure" {
		t.Fatalf("failures %q, want the one at [3 1]", res.Failures)
	}
	visited = nil
	if res := Sweep(spec, sc, 0); res.Points != 1 || !reflect.DeepEqual(visited, [][]sim.Time{{0}}) {
		t.Fatalf("bound 0 swept %d points %v, want one at [0]", res.Points, visited)
	}
}
