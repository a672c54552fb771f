package config

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"crossingguard/internal/seq"
	"crossingguard/internal/tester"
)

func allSpecs(seed int64, small bool) []Spec {
	var specs []Spec
	for _, h := range []HostKind{HostHammer, HostMESI} {
		for _, o := range AllOrgs {
			specs = append(specs, Spec{Host: h, Org: o, CPUs: 2, AccelCores: 2, Seed: seed, Small: small})
		}
	}
	return specs
}

func quiesce(t *testing.T, s *System) {
	t.Helper()
	if !s.Eng.RunUntil(50_000_000) {
		t.Fatalf("%s: engine did not drain", s.Spec.Name())
	}
	if n := s.Outstanding(); n != 0 {
		t.Fatalf("%s: %d transactions outstanding after quiesce", s.Spec.Name(), n)
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("%s: audit: %v", s.Spec.Name(), err)
	}
}

// TestBasicSharingAllConfigs checks, in every one of the 12
// configurations, that CPU stores become visible to the accelerator and
// vice versa, through whatever cache organization is in place.
func TestBasicSharingAllConfigs(t *testing.T) {
	for _, spec := range allSpecs(11, false) {
		spec := spec
		t.Run(spec.Name(), func(t *testing.T) {
			s := Build(spec)
			var got1, got2, got3 byte
			// CPU writes, accelerator reads.
			s.CPUSeqs[0].Store(0x1000, 7, func(*seq.Op) {
				s.AccelSeqs[0].Load(0x1000, func(op *seq.Op) { got1 = op.Result })
			})
			quiesce(t, s)
			// Accelerator writes, CPU reads.
			s.AccelSeqs[1].Store(0x2000, 9, func(*seq.Op) {
				s.CPUSeqs[1].Load(0x2000, func(op *seq.Op) { got2 = op.Result })
			})
			quiesce(t, s)
			// Accelerator overwrites a CPU-written line; CPU reads back.
			s.CPUSeqs[0].Store(0x1000, 1, func(*seq.Op) {
				s.AccelSeqs[0].Store(0x1000, 2, func(*seq.Op) {
					s.CPUSeqs[0].Load(0x1000, func(op *seq.Op) { got3 = op.Result })
				})
			})
			quiesce(t, s)
			if got1 != 7 || got2 != 9 || got3 != 2 {
				t.Fatalf("sharing results %d/%d/%d, want 7/9/2", got1, got2, got3)
			}
			if s.Log.Count() != 0 {
				t.Fatalf("correct run reported errors: %v", s.Log.Errors[0])
			}
		})
	}
}

// TestAccelToAccelSharing checks accelerator-core-to-accelerator-core
// data movement; in the two-level organizations it must be served by the
// shared accelerator L2 without extra host traffic per transfer.
func TestAccelToAccelSharing(t *testing.T) {
	for _, spec := range allSpecs(13, false) {
		spec := spec
		t.Run(spec.Name(), func(t *testing.T) {
			s := Build(spec)
			var got byte
			s.AccelSeqs[0].Store(0x3000, 55, func(*seq.Op) {
				s.AccelSeqs[1].Load(0x3000, func(op *seq.Op) { got = op.Result })
			})
			quiesce(t, s)
			if got != 55 {
				t.Fatalf("accel-to-accel read %d, want 55", got)
			}
			if spec.Org.TwoLevel() && s.AccelL2.LocalSharing == 0 {
				// The store by core 0 (XGetM after XGetS...) and the load
				// by core 1 share through the accel L2.
				t.Log("note: transfer satisfied without owner pull (both flows legal)")
			}
		})
	}
}

// TestStressAllConfigs runs the paper's random load/store/check stress
// test (§4.1) against all 12 configurations with small caches: data must
// stay correct, no deadlock, invariants hold at quiesce, and no
// protocol errors are reported for a correct accelerator.
func TestStressAllConfigs(t *testing.T) {
	seeds := []int64{1}
	if !testing.Short() {
		seeds = []int64{1, 2, 3}
	}
	for _, seed := range seeds {
		for _, spec := range allSpecs(seed*100, true) {
			spec := spec
			t.Run(fmt.Sprintf("%s/seed%d", spec.Name(), seed), func(t *testing.T) {
				s := Build(spec)
				cfg := tester.DefaultConfig(seed*1000 + int64(spec.Org))
				cfg.StoresPerLoc = 25
				cfg.Deadline = 100_000_000
				res, err := tester.Run(s, cfg)
				if err != nil {
					t.Fatalf("%v", err)
				}
				if res.Stores == 0 || res.LoadChecks == 0 {
					t.Fatalf("stress did nothing: %+v", res)
				}
				if s.Log.Count() != 0 {
					t.Fatalf("correct accelerator triggered %d errors; first: %v",
						s.Log.Count(), s.Log.Errors[0])
				}
			})
		}
	}
}

// TestBuildRejectsOversizedMachine: a spec past the node-id layout's
// limits panics naming the limit, not with a fabric node collision.
func TestBuildRejectsOversizedMachine(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{CPUs: MaxCPUs + 1}, fmt.Sprintf("limit of %d", MaxCPUs)},
		{Spec{AccelCores: MaxAccelCores + 1}, fmt.Sprintf("limit of %d", MaxAccelCores)},
		{Spec{Accels: MaxAccels + 1}, fmt.Sprintf("%d accelerator devices exceeds the limit of %d", MaxAccels+1, MaxAccels)},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("Build(%d CPUs, %d cores, %d devices) panicked with %q, want %q in it",
						c.spec.CPUs, c.spec.AccelCores, c.spec.Accels, msg, c.want)
				}
			}()
			Build(c.spec)
		}()
	}
}

// The park is shared by every goroutine that builds and closes machines (a
// campaign's workers): parked from one goroutine, a machine may be taken
// by another, but never by two at once. Run with -race: the lifetime check
// keeps Close from parking there, so this test parks directly.
func TestParkHandsEachMachineToOneTaker(t *testing.T) {
	was := SetParking(true)
	defer func() {
		SetParking(false) // empties the park of the machines this test made up
		SetParking(was)
	}()
	specs := []Spec{
		normalize(Spec{Host: HostHammer, Org: OrgXGFull1L}),
		normalize(Spec{Host: HostMESI, Org: OrgXGTxn2L, Small: true}),
	}
	var out sync.Map // *System -> *atomic.Bool: handed out and not parked again
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				spec := specs[(w+i)%len(specs)]
				s := unpark(spec)
				if s == nil {
					s = &System{Spec: spec}
				}
				taken, _ := out.LoadOrStore(s, new(atomic.Bool))
				if !taken.(*atomic.Bool).CompareAndSwap(false, true) {
					t.Error("a parked machine was handed to two takers at once")
					return
				}
				if s.Spec.Host != spec.Host || s.Spec.Org != spec.Org {
					t.Errorf("asked for %s, got a parked %s", spec.Name(), s.Spec.Name())
					return
				}
				taken.(*atomic.Bool).Store(false)
				park(s)
			}
		}(w)
	}
	wg.Wait()
}
