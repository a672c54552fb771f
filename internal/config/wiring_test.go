package config

import (
	"strconv"
	"strings"
	"testing"
)

// TestWiringInvariants builds every organization on both hosts, and the
// multi-device machines, and checks that what the machine derives agrees
// with what Build wired: each guard fronts exactly one registered cache,
// every recorded crossing is routed at the crossing latency, the device
// of each accelerator sequencer matches its name, and nothing is open
// before the first event.
func TestWiringInvariants(t *testing.T) {
	var specs []Spec
	for _, host := range []HostKind{HostHammer, HostMESI} {
		for _, org := range append(append([]Org{}, AllOrgs...), OrgXGWeak) {
			specs = append(specs, Spec{Host: host, Org: org, Small: true})
		}
		for _, org := range []Org{OrgXGTxn2L, OrgXGFull1L} {
			for _, n := range []int{2, 16} {
				specs = append(specs, Spec{Host: host, Org: org, Accels: n, Small: true})
			}
		}
	}
	crossing := DefaultLatencies().Crossing
	for _, spec := range specs {
		t.Run(spec.Name(), func(t *testing.T) {
			s := Build(spec)
			for _, g := range s.Guards {
				n := 0
				for _, c := range s.caches {
					if c.place == guardedCache && c.ID() == g.AccelID() {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s fronts %d registered caches at %d, want 1", g.Name(), n, g.AccelID())
				}
			}
			if len(s.Crossings()) == 0 {
				t.Error("no crossing recorded")
			}
			for _, p := range s.Crossings() {
				for _, r := range [][2]int{{0, 1}, {1, 0}} {
					src, dst := p[r[0]], p[r[1]]
					if lat := s.Fab.Route(src, dst).Latency; lat != crossing {
						t.Errorf("crossing %d->%d routed at %d ticks, want %d", src, dst, lat, crossing)
					}
				}
			}
			for i, sq := range s.AccelSeqs {
				want := 0
				if name, ok := strings.CutPrefix(sq.Name(), "d"); ok {
					n, _, _ := strings.Cut(name, ".")
					want, _ = strconv.Atoi(n)
				}
				if got := s.AccelSeqDevice(i); got != want {
					t.Errorf("AccelSeqDevice(%d) = %d, but %s names device %d", i, got, sq.Name(), want)
				}
			}
			if n := s.Outstanding(); n != 0 {
				t.Errorf("%d outstanding right after Build", n)
			}
		})
	}
}
