package config

import (
	"testing"

	"crossingguard/internal/seq"
	"crossingguard/internal/tester"
)

// multiDeviceOrgs are the two organizations the two-device machines run:
// single-level devices behind Full State guards, and two-level devices
// behind Transactional guards.
var multiDeviceOrgs = []Org{OrgXGFull1L, OrgXGTxn2L}

// TestMultiDeviceSharing: two accelerator devices, each behind its own
// guards, share data with each other and with the CPUs through ordinary
// host coherence.
func TestMultiDeviceSharing(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		t.Run(host.String(), func(t *testing.T) {
			for _, org := range multiDeviceOrgs {
				t.Run(org.String(), func(t *testing.T) {
					s := Build(Spec{Host: host, Org: org, CPUs: 2, AccelCores: 2, Accels: 2, Seed: 91})
					dev0, dev1 := s.AccelSeqs[:2], s.AccelSeqs[2:]
					var viaDev1, viaCPU, viaDev0 byte

					// Device 0 writes; device 1 reads (through two guards and
					// the host protocol in between).
					dev0[0].Store(0x1000, 7, func(*seq.Op) {
						dev1[0].Load(0x1000, func(op *seq.Op) {
							viaDev1 = op.Result
							// Device 1 transforms; a CPU observes.
							dev1[1].Store(0x1000, 14, func(*seq.Op) {
								s.CPUSeqs[0].Load(0x1000, func(op *seq.Op) {
									viaCPU = op.Result
									// The CPU writes; device 0 observes.
									s.CPUSeqs[1].Store(0x1000, 28, func(*seq.Op) {
										dev0[0].Load(0x1000, func(op *seq.Op) { viaDev0 = op.Result })
									})
								})
							})
						})
					})
					quiesce(t, s)
					if viaDev1 != 7 || viaCPU != 14 || viaDev0 != 28 {
						t.Fatalf("cross-device chain %d/%d/%d, want 7/14/28", viaDev1, viaCPU, viaDev0)
					}
					if s.Log.Count() != 0 {
						t.Fatalf("errors with correct devices: %v", s.Log.Errors[0])
					}
				})
			}
		})
	}
}

// TestMultiDeviceStress runs the full random tester over CPUs and both
// devices simultaneously.
func TestMultiDeviceStress(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		t.Run(host.String(), func(t *testing.T) {
			for _, org := range multiDeviceOrgs {
				t.Run(org.String(), func(t *testing.T) {
					s := Build(Spec{Host: host, Org: org, CPUs: 2, AccelCores: 2, Accels: 2, Seed: 93, Small: true})
					cfg := tester.DefaultConfig(94)
					cfg.StoresPerLoc = 30
					cfg.Deadline = 200_000_000
					res, err := tester.Run(s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Stores == 0 {
						t.Fatal("no work done")
					}
					if s.Log.Count() != 0 {
						t.Fatalf("errors under multi-device stress: %v", s.Log.Errors[0])
					}
				})
			}
		})
	}
}
