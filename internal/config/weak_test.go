package config

import (
	"testing"

	"crossingguard/internal/mem"
	"crossingguard/internal/seq"
	"crossingguard/internal/tester"
)

func addrOf(a uint64) mem.Addr { return mem.Addr(a) }

// TestWeakHierarchyThroughRealGuard exercises the §2.1 weakly-coherent
// accelerator against the real Crossing Guard: the accelerator's internal
// model needs explicit flushes, but host-visible coherence is exact.
func TestWeakHierarchyThroughRealGuard(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			s := Build(Spec{Host: host, Org: OrgXGWeak, CPUs: 2, AccelCores: 2, Seed: 17})

			// CPU -> accelerator: plain coherent read (the weak model
			// only weakens accel-internal visibility).
			var got byte
			s.CPUSeqs[0].Store(0x1000, 7, func(*seq.Op) {
				s.AccelSeqs[0].Load(0x1000, func(op *seq.Op) { got = op.Result })
			})
			quiesce(t, s)
			if got != 7 {
				t.Fatalf("accel read %d, want 7", got)
			}

			// Accelerator core 0 writes WITHOUT flushing; the host must
			// still observe the value, because the guard recalls through
			// the weak L2, which recalls the dirty L1 copy.
			var cpuSees byte
			s.AccelSeqs[0].Store(0x2000, 9, func(*seq.Op) {
				s.CPUSeqs[1].Load(0x2000, func(op *seq.Op) { cpuSees = op.Result })
			})
			quiesce(t, s)
			if cpuSees != 9 {
				t.Fatalf("CPU read %d through the guard, want 9 (unflushed accel write lost)", cpuSees)
			}

			// Accel-internal weak semantics: core 1's cached copy stays
			// stale until flushes publish and refresh.
			var stale, fresh byte
			s.AccelSeqs[1].Load(0x3000, nil) // cache a zero at core 1
			quiesce(t, s)
			s.AccelSeqs[0].Store(0x3000, 42, nil)
			quiesce(t, s)
			s.AccelSeqs[1].Load(0x3000, func(op *seq.Op) { stale = op.Result })
			quiesce(t, s)
			if stale != 0 {
				t.Fatalf("sibling saw unpublished write (%d); weak model broken", stale)
			}
			flushed := false
			s.WeakL1s[0].Flush(func() {
				s.WeakL1s[1].Flush(func() {
					flushed = true
					s.AccelSeqs[1].Load(0x3000, func(op *seq.Op) { fresh = op.Result })
				})
			})
			quiesce(t, s)
			if !flushed {
				t.Fatal("flush chain never completed")
			}
			if fresh != 42 {
				t.Fatalf("after flush, sibling read %d, want 42", fresh)
			}
			if s.Log.Count() != 0 {
				t.Fatalf("guard errors: %v", s.Log.Errors[0])
			}
		})
	}
}

// TestWeakHierarchyChurn drives the weak hierarchy through enough
// traffic to exercise evictions, upgrades, and guard recalls, with the
// full system audit at quiesce.
func TestWeakHierarchyChurn(t *testing.T) {
	s := Build(Spec{Host: HostMESI, Org: OrgXGWeak, CPUs: 2, AccelCores: 2, Seed: 19, Small: true})
	n := 0
	var step func(core int)
	step = func(core int) {
		if n >= 600 {
			return
		}
		n++
		sq := s.AccelSeqs[core]
		a := uint64(0x10000 + (n*64)%(12*64))
		next := func(*seq.Op) {
			if n%37 == 0 {
				s.WeakL1s[core].Flush(func() { step(1 - core) })
				return
			}
			step(1 - core)
		}
		if n%3 == 0 {
			sq.Store(addrOf(a), byte(n), next)
		} else {
			sq.Load(addrOf(a), next)
		}
	}
	s.Eng.Schedule(1, func() { step(0) })
	// CPU interference on the same lines.
	ci := 0
	var cstep func()
	cstep = func() {
		if ci >= 150 {
			return
		}
		ci++
		s.CPUSeqs[0].Store(addrOf(uint64(0x10000+(ci*192)%(12*64))), byte(ci),
			func(*seq.Op) { s.Eng.Schedule(30, cstep) })
	}
	s.Eng.Schedule(5, cstep)
	quiesce(t, s)
	if n < 600 {
		t.Fatalf("accel work wedged at %d/600", n)
	}
	if s.Log.Count() != 0 {
		t.Fatalf("guard errors under churn: %v", s.Log.Errors[0])
	}
}

// TestWeakHierarchyMultiDevice runs the stress tester on two weak devices,
// one core each, behind their own guards: every load checks, nothing is
// reported, and the machine audits clean at quiesce.
func TestWeakHierarchyMultiDevice(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		t.Run(host.String(), func(t *testing.T) {
			s := Build(Spec{Host: host, Org: OrgXGWeak, CPUs: 2, AccelCores: 1, Accels: 2, Seed: 29, Small: true})
			if len(s.Guards) != 2 || len(s.WeakL1s) != 2 {
				t.Fatalf("%d guards and %d weak L1s, want 2 of each", len(s.Guards), len(s.WeakL1s))
			}
			cfg := tester.DefaultConfig(29)
			cfg.StoresPerLoc = 25
			res, err := tester.Run(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.LoadChecks == 0 {
				t.Fatalf("stress did nothing: %+v", res)
			}
			if err := s.Audit(); err != nil {
				t.Fatalf("audit: %v", err)
			}
			if s.Log.Count() != 0 {
				t.Fatalf("guard errors: %v", s.Log.Errors[0])
			}
		})
	}
}
