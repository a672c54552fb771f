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

// A put-vs-inv point on a machine reset in place allocates nothing once
// warm: Build takes the parked machine and resets it, the race runs to
// drain, the audit judges it on storage it kept, and Close parks it again.
// Under -race nothing is parked (the lifetime check), so the gate skips.
func TestPutVsInvPointAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sc := Scenarios()[0]
	for _, spec := range putVsInvSpecs() {
		off := sim.Time(0)
		point := func() {
			if err := runPoint(config.Build(spec), sc, off%41); err != nil {
				t.Fatal(err)
			}
			off++
		}
		for i := 0; i < 41; i++ {
			point() // warm-up: every offset once
		}
		if n := testing.AllocsPerRun(100, point); n != 0 {
			t.Errorf("%s: a put-vs-inv point allocates %.1f objects after warm-up, want 0", spec.Name(), n)
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
			for i := 0; i < b.N; i++ {
				if err := runPoint(config.Build(spec), sc, sim.Time(i%41)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
