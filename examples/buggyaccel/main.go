// Buggy accelerator: the paper's safety story (§2.2) end to end. A
// malicious accelerator floods Crossing Guard with stray responses,
// duplicate requests, forged host-protocol messages, and then goes deaf
// to invalidations — while the CPUs keep doing real, value-checked work.
// The guard detects and classifies every violation, answers the host on
// the accelerator's behalf (including by timeout), and finally applies
// the OS policy of quarantining the accelerator. The host never crashes,
// never deadlocks, and its data stays correct because the permission
// table denies the accelerator access to the CPUs' pages.
package main

import (
	"fmt"
	"log"
	"sort"

	"crossingguard/internal/config"
	"crossingguard/internal/fuzz"
	"crossingguard/internal/mem"
	"crossingguard/internal/perm"
	"crossingguard/internal/seq"
)

func main() {
	var att *fuzz.Attacker
	pool := make([]mem.Addr, 8)
	for i := range pool {
		pool[i] = mem.Addr(0x10000 + i*mem.BlockBytes)
	}

	perms := perm.NewTable()
	perms.GrantRange(0x20000, 0x1000, perm.ReadWrite) // the accel's own page

	sys := config.Build(config.Spec{
		Host:            config.HostHammer,
		Org:             config.OrgXGFull1L,
		CPUs:            2,
		AccelCores:      1,
		Seed:            13,
		Perms:           perms,
		Timeout:         5000, // Guarantee 2c watchdog
		QuarantineAfter: 500,  // OS policy: fence it after 500 violations
		CustomAccel: func(s *config.System, slot *config.CustomSlot) {
			att = config.SlotDevice[fuzz.Attacker](slot)
			att.Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, 14, pool)
			att.Policy = fuzz.InvRandom // sometimes ignores, sometimes lies
			att.IncludeHostTypes = true // even forges raw host messages
			att.NilDataProb = 0.2
		},
	})

	// The attack: 4000 random coherence messages at the guard.
	att.Rampage(4000, 25)

	// Meanwhile the CPUs do real work on the very lines the attacker
	// names — and on their own pages, which the permission table makes
	// untouchable for the accelerator.
	checked, failures := 0, 0
	var cpuWork func(sq *seq.Sequencer, i int)
	cpuWork = func(sq *seq.Sequencer, i int) {
		if i >= 600 {
			return
		}
		a := mem.Addr(0x10000 + (i%32)*64)
		v := byte(i%250 + 1)
		sq.Store(a, v, func(*seq.Op) {
			sq.Load(a, func(op *seq.Op) {
				checked++
				if op.Result != v {
					failures++
				}
				cpuWork(sq, i+1)
			})
		})
	}
	for _, sq := range sys.CPUSeqs {
		sq := sq
		sys.Eng.Schedule(1, func() { cpuWork(sq, 0) })
	}

	if !sys.Eng.RunUntil(200_000_000) {
		log.Fatal("system wedged (this must never happen)")
	}
	if err := sys.AuditHostOnly(); err != nil {
		log.Fatalf("host audit failed: %v", err)
	}

	fmt.Println("a malicious accelerator attacked the host through Crossing Guard:")
	fmt.Printf("  attacker messages sent:      %d\n", att.Sent)
	fmt.Printf("  CPU read-after-write checks: %d, failures: %d\n", checked, failures)
	fmt.Printf("  host deadlocked or crashed:  no\n")
	fmt.Printf("  accelerator quarantined:     %v\n", sys.Guards[0].Quarantined)
	fmt.Printf("  timeouts answered for it:    %d\n", sys.Guards[0].Timeouts)

	fmt.Println("\nviolations detected and classified (paper Figure 1 guarantees):")
	var codes []string
	for c := range sys.Log.ByCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Printf("  %-16s %6d\n", c, sys.Log.ByCode[c])
	}
	if failures > 0 {
		log.Fatal("CPU data was corrupted — Guarantee 0 failed")
	}
}
