package config

import (
	"fmt"

	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
)

// AuditHostOnly checks the invariants the paper guarantees even against a
// pathological accelerator (§2.2): the host caches keep their structural
// coherence (SWMR among CPU caches, no stuck transients), and the host's
// ownership bookkeeping is sane wherever the guard is not involved. Data
// values are deliberately NOT checked — the paper accepts that a buggy
// accelerator corrupts the data of pages it may write ("the host system
// eventually converges on a single value"), and guard-substituted zero
// blocks are expected.
func (s *System) AuditHostOnly() error {
	guardIDs := make(map[coherence.NodeID]bool)
	for _, g := range s.Guards {
		guardIDs[g.ID()] = true
	}
	type claim struct {
		name string
		id   coherence.NodeID
		excl bool
	}
	lines := make(map[mem.Addr][]claim)
	shared := make(map[mem.Addr]int)
	for _, c := range s.caches {
		if c.place != cpuCache {
			continue
		}
		if c.WBPending() != 0 {
			return fmt.Errorf("%s: writebacks pending at quiesce", c.Name())
		}
		c.Held(func(addr mem.Addr, lvl chassis.Level, _ *mem.Block, _ bool) {
			if lvl == chassis.Shared {
				shared[addr]++
				return
			}
			// MOESI O legitimately coexists with sharers.
			lines[addr] = append(lines[addr], claim{c.Name(), c.ID(), lvl != chassis.Owned})
		})
	}
	for addr, cs := range lines {
		excl := 0
		for _, c := range cs {
			if c.excl {
				excl++
			}
		}
		if excl > 1 {
			return fmt.Errorf("host SWMR violated at %v: %d exclusive CPU holders", addr, excl)
		}
		if excl == 1 && (shared[addr] > 0 || len(cs) > 1) {
			return fmt.Errorf("host SWMR violated at %v: exclusive CPU holder beside sharers", addr)
		}
	}
	// Host ownership must point at a real CPU owner or at the guard
	// (whose internal state we do not trust after fuzzing).
	check := func(addr mem.Addr, rec coherence.NodeID) error {
		if rec == coherence.NodeNone || guardIDs[rec] {
			return nil
		}
		for _, c := range lines[addr] {
			if c.id == rec {
				return nil
			}
		}
		// A CPU sequencer id or unknown node as owner would be corrupt.
		for _, c := range s.caches {
			if c.place == cpuCache && c.ID() == rec {
				return fmt.Errorf("%v: host records CPU owner %d holding nothing", addr, rec)
			}
		}
		return fmt.Errorf("%v: host records unknown owner %d", addr, rec)
	}
	var err error
	s.home.VisitOwned(func(addr mem.Addr, owner coherence.NodeID) {
		if err == nil {
			err = check(addr, owner)
		}
	})
	return err
}

// HostOutstanding reports open transactions in the host protocol and CPU
// sequencers only (the accelerator side may legitimately be wedged when
// it is a fuzzer).
func (s *System) HostOutstanding() int {
	n := s.home.Outstanding()
	for _, sq := range s.CPUSeqs {
		n += sq.Outstanding()
	}
	for _, c := range s.caches {
		if c.place == cpuCache {
			n += c.Outstanding()
		}
	}
	return n
}
