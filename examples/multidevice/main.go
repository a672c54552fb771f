// Multi-device: "one instance of Crossing Guard per accelerator in the
// system" (§2). A host carries two mutually-untrusted accelerators, each
// behind its own guards, and data flows between all parties through
// ordinary coherent loads and stores: device 0 → device 1 → the CPUs →
// device 0. The chain runs twice: single-level devices behind Full State
// guards, then two-level devices behind Transactional guards.
package main

import (
	"fmt"
	"log"

	"crossingguard/internal/config"
	"crossingguard/internal/seq"
)

func main() {
	for _, org := range []config.Org{config.OrgXGFull1L, config.OrgXGTxn2L} {
		sys := config.Build(config.Spec{Host: config.HostMESI, Org: org, CPUs: 2, AccelCores: 2, Accels: 2, Seed: 5})
		dev0, dev1 := sys.AccelSeqs[:2], sys.AccelSeqs[2:]
		fmt.Printf("%s: two devices, %d %v guards\n", sys.Spec.Name(), len(sys.Guards), org.Mode())

		const addr = 0x8000
		var last byte
		dev0[0].Store(addr, 3, func(*seq.Op) {
			fmt.Println("  device 0 core 0: wrote 3")
			dev1[0].Load(addr, func(op *seq.Op) {
				fmt.Printf("  device 1 core 0: read %d across two guards\n", op.Result)
				dev1[1].Store(addr, op.Result*7, func(*seq.Op) {
					fmt.Println("  device 1 core 1: wrote 21")
					sys.CPUSeqs[0].Load(addr, func(op *seq.Op) {
						fmt.Printf("  cpu 0:           read %d\n", op.Result)
						sys.CPUSeqs[1].Store(addr, op.Result+7, func(*seq.Op) {
							fmt.Println("  cpu 1:           wrote 28")
							dev0[1].Load(addr, func(op *seq.Op) {
								last = op.Result
								fmt.Printf("  device 0 core 1: read %d\n", last)
							})
						})
					})
				})
			})
		})

		sys.Eng.RunUntilQuiet()
		if last != 28 {
			log.Fatalf("device 0 read %d at the end of the chain, want 28", last)
		}
		if err := sys.Audit(); err != nil {
			log.Fatalf("audit: %v", err)
		}
		if sys.Log.Count() != 0 {
			log.Fatalf("guard errors: %v", sys.Log.Errors[0])
		}
	}
	fmt.Println("system-wide coherence audit clean")
}
