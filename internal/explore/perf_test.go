package explore

import (
	"testing"

	"crossingguard/internal/config"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/sim"
)

// putVsInvSpecs are the machines the put-vs-inv gate and benchmark run on.
func putVsInvSpecs() []config.Spec {
	var specs []config.Spec
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L} {
			specs = append(specs, config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 1, Seed: 23, Small: true})
		}
	}
	return specs
}

// A warm put-vs-inv or evict-refetch point on a machine reset in place
// allocates nothing: Build takes the parked machine and resets it, the
// race runs to drain, the audit judges it on storage it kept, and Close
// parks it again. So a warm sweep of 41 points allocates no more than a
// sweep of one, whose few objects are the sweep's own. Under -race
// nothing is parked (the lifetime check), so the gate skips.
func TestPutVsInvPointAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	scs := Scenarios()
	for _, sc := range []Scenario{scs[0], scs[2]} { // put-vs-inv, evict-refetch
		for _, spec := range putVsInvSpecs() {
			sweep := func(bound sim.Time) func() {
				return func() {
					if res := Sweep(spec, sc, bound); len(res.Failures) > 0 {
						t.Fatal(res.Failures[0])
					}
				}
			}
			sweep(40)() // warm-up: every answer once
			if one, all := testing.AllocsPerRun(10, sweep(0)), testing.AllocsPerRun(10, sweep(40)); all > one {
				t.Errorf("%s on %s: a warm sweep allocates %.0f objects at bound 40, %.0f at bound 0",
					sc.Name, spec.Name(), all, one)
			}
		}
	}
}

// BenchmarkPutVsInvPoint prices one point of the §2.1 Put/Inv race sweep
// as Sweep runs it: build the machine, run the race to drain, judge it,
// close it. A closed machine is parked and the next point's Build resets
// it in place, so after the first point a sweep builds nothing.
func BenchmarkPutVsInvPoint(b *testing.B) {
	sc := Scenarios()[0]
	for _, spec := range putVsInvSpecs() {
		b.Run(spec.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var i sim.Time
			choose := func() sim.Time { return i % 41 }
			for ; i < sim.Time(b.N); i++ {
				if err := runPoint(config.Build(spec), sc, choose); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
