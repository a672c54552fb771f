package config

import (
	"fmt"
	"slices"

	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/core"
	"crossingguard/internal/mem"
)

// holder is one cache's stable claim on a line, normalized across
// protocols.
type holder struct {
	name  string
	id    coherence.NodeID
	level chassis.Level
	data  *mem.Block
}

// Audit checks system-wide invariants at a quiesce point:
//
//  1. SWMR across *all* caches — CPU and accelerator alike: at most one
//     exclusive holder, never coexisting with sharers;
//  2. the host's ownership bookkeeping points at a real owner (the guard
//     counts as owner exactly when the accelerator side owns);
//  3. data agreement: every shared/clean copy equals the owner's data,
//     or memory when nobody owns;
//  4. for Full State guards: the block table matches the accelerator
//     cache contents exactly (it is an inclusive directory);
//  5. quiesce hygiene: no guard still holds a parked request; every line
//     left in a guard's table is resident (Full State) or kept by an
//     InvAck the accelerator still owes — none has open work, none is
//     empty (core.Guard.CheckQuiesced); no delayed send or deferred
//     handler is still waiting for its tick; and the machine's message
//     and block pool balances (auditPool).
//
// Audit implements tester.System.
func (s *System) Audit() error {
	for _, g := range s.Guards {
		if n := g.ParkedNow(); n != 0 {
			return fmt.Errorf("%s: %d accelerator requests still parked at quiesce", g.Name(), n)
		}
		if err := g.CheckQuiesced(); err != nil {
			return err
		}
	}
	if n := s.Fab.DelayedSends(); n != 0 {
		return fmt.Errorf("fabric: %d delayed sends still scheduled at quiesce", n)
	}
	// The host-level claims: every cache up to the one a guard fronts. A
	// shared accelerator L2 claims for its whole device; the inner L1s
	// behind it are checked per device below, never against another
	// device's L2. The weak hierarchy's inner copies are deliberately
	// incoherent locally and are NOT checked for data agreement (§2.1's
	// flush model).
	lines := make(map[mem.Addr][]holder)
	for _, c := range s.caches {
		if c.place == cpuCache && c.WBPending() != 0 {
			return fmt.Errorf("%s: writebacks pending at quiesce", c.Name())
		}
		if c.place <= guardedCache {
			c.Held(func(addr mem.Addr, lvl chassis.Level, data *mem.Block, _ bool) {
				lines[addr] = append(lines[addr], holder{c.Name(), c.ID(), lvl, data})
			})
		}
	}
	for i := range s.innerGroups {
		if err := s.auditInnerHierarchy(&s.innerGroups[i]); err != nil {
			return err
		}
	}

	// 1-3: SWMR + data agreement per line.
	for addr, hs := range lines {
		var owner *holder
		sharers := 0
		for i := range hs {
			if hs[i].level == chassis.Shared {
				sharers++
				continue
			}
			if owner != nil {
				return fmt.Errorf("SWMR violated at %v: %s and %s both own",
					addr, owner.name, hs[i].name)
			}
			owner = &hs[i]
		}
		// MOESI's O is the one owner that answers for a line beside
		// sharers; E and M are sole copies.
		if owner != nil && owner.level != chassis.Owned && sharers > 0 {
			return fmt.Errorf("SWMR violated at %v: %s owns exclusively beside %d sharers",
				addr, owner.name, sharers)
		}
		ref := s.refData(addr, owner)
		for _, h := range hs {
			if h.level == chassis.Shared && !mem.Equal(h.data, ref) {
				return fmt.Errorf("data divergence at %v: sharer %s disagrees with %s",
					addr, h.name, refName(owner))
			}
		}
	}

	// 2: host ownership bookkeeping.
	if err := s.auditHostOwnership(lines); err != nil {
		return err
	}

	// 4: Full State table == accelerator contents.
	if err := s.auditGuardTables(); err != nil {
		return err
	}
	return s.auditPool()
}

// auditPool checks the pool's balance at quiesce: every message handed out
// has come back, and the blocks still out are exactly the ones resident in
// cache lines and guard tables. A leak is only a performance bug — the
// collector still owns whatever the pool lost track of — but this is where
// it gets noticed. Three kinds of machine are exempt, because they lose
// messages by design: one with a fault injector (a message delivered
// twice or beside a corrupted copy left the pool for good, and a dropped
// message's transaction never closes), one with a quarantined guard (the fenced device's open
// transactions, and the requests kept behind them, never finish), and one
// whose device was reset (Reset drops tables full of kept messages and
// whole caches of blocks for the collector).
func (s *System) auditPool() error {
	if s.Faults != nil {
		return nil
	}
	for _, g := range s.Guards {
		if g.Quarantined || g.Epoch() != 0 {
			return nil
		}
	}
	st := s.Fab.Stats()
	if st.MsgsOut != 0 {
		return fmt.Errorf("pool: %d messages handed out and never returned at quiesce", st.MsgsOut)
	}
	if held := s.residentBlocks(); st.BlocksOut != held {
		return fmt.Errorf("pool: %d blocks out at quiesce, %d resident in cache lines and guard tables",
			st.BlocksOut, held)
	}
	return nil
}

// residentBlocks counts the pooled blocks the machine legitimately holds
// at quiesce: one per valid cache line, plus the Full State guards'
// trusted copies.
func (s *System) residentBlocks() int {
	n := 0
	count := func(mem.Addr, chassis.Level, *mem.Block, bool) { n++ }
	for _, c := range s.caches {
		c.Held(count)
	}
	n += s.home.Blocks()
	for _, g := range s.Guards {
		g.VisitBlocks(func(_ mem.Addr, _, _ core.Grant, hasCopy bool) {
			if hasCopy {
				n++
			}
		})
	}
	return n
}

func (s *System) refData(addr mem.Addr, owner *holder) *mem.Block {
	if owner != nil {
		return owner.data
	}
	// No owner: MESI's L2 copy (if any) else memory.
	if s.ML2 != nil {
		present, _, _, data, _ := s.ML2.AuditLine(addr)
		if present {
			return data
		}
	}
	return s.Mem.Peek(addr)
}

func refName(owner *holder) string {
	if owner != nil {
		return owner.name
	}
	return "memory"
}

func (s *System) auditHostOwnership(lines map[mem.Addr][]holder) error {
	// Each Full State guard's table, read once: VisitBlocks walks in address
	// order, so membership is a binary search. A Transactional guard has no
	// table to check against, and its entry is nil.
	guardTables := make(map[coherence.NodeID][]mem.Addr)
	for _, g := range s.Guards {
		var table []mem.Addr
		if g.Mode() == core.FullState {
			table = make([]mem.Addr, 0, g.TableEntries())
			g.VisitBlocks(func(a mem.Addr, _, _ core.Grant, _ bool) { table = append(table, a) })
		}
		guardTables[g.ID()] = table
	}
	ownerOK := func(addr mem.Addr, rec coherence.NodeID) error {
		if table, isGuard := guardTables[rec]; isGuard {
			// The guard is the recorded owner: the accelerator side (or
			// the guard's trusted copy) must hold the block.
			if _, held := slices.BinarySearch(table, addr); table != nil && !held {
				return fmt.Errorf("%v: host records guard as owner but its table is empty", addr)
			}
			return nil
		}
		for _, h := range lines[addr] {
			if h.id == rec && h.level != chassis.Shared {
				return nil
			}
		}
		return fmt.Errorf("%v: host records owner %d but that cache does not own", addr, rec)
	}
	var err error
	s.home.VisitOwned(func(addr mem.Addr, owner coherence.NodeID) {
		if err == nil {
			err = ownerOK(addr, owner)
		}
	})
	return err
}

// auditGuardTables checks Full State inclusivity: table entries mirror
// the accelerator's resident blocks (silent upgrades E->M allowed). Of
// several mismatches it reports the one at the lowest address (VisitBlocks
// walks in address order), so a failure reads the same on every run.
func (s *System) auditGuardTables() error {
	for _, g := range s.Guards {
		if g.Mode() != core.FullState {
			continue
		}
		accelLines := s.guardedLines(g.AccelID())
		if accelLines == nil {
			continue // custom accelerator: no cache to audit against
		}
		var err error
		tableAddrs := make(map[mem.Addr]bool)
		g.VisitBlocks(func(addr mem.Addr, grant, _ core.Grant, hasCopy bool) {
			tableAddrs[addr] = true
			lvl, held := accelLines[addr]
			if !held {
				if err == nil {
					err = fmt.Errorf("%s table records %v but the accelerator does not hold it", g.Name(), addr)
				}
				return
			}
			grantLvl := int(grant)
			if lvl > grantLvl && !(grant == core.GrantE && lvl == 2) {
				if err == nil {
					err = fmt.Errorf("%s table grants %v for %v but the accelerator holds level %d",
						g.Name(), grant, addr, lvl)
				}
			}
		})
		if err != nil {
			return err
		}
		missing, found := mem.Addr(0), false
		for addr := range accelLines {
			if !tableAddrs[addr] && (!found || addr < missing) {
				missing, found = addr, true
			}
		}
		if found {
			return fmt.Errorf("%s: accelerator holds %v but the guard table does not (inclusion broken)",
				g.Name(), missing)
		}
	}
	return nil
}

// guardedLines snapshots the stable lines (level 0=S,1=E,2=M) of the cache
// a guard fronts at id, or is nil when Build wired none there.
func (s *System) guardedLines(id coherence.NodeID) map[mem.Addr]int {
	for _, c := range s.caches {
		if c.place == guardedCache && c.ID() == id {
			out := map[mem.Addr]int{}
			c.Held(func(addr mem.Addr, lvl chassis.Level, _ *mem.Block, _ bool) { out[addr] = int(lvl) })
			return out
		}
	}
	return nil
}

// auditInnerHierarchy checks one two-level device's internal
// invariants: inner inclusion, single inner owner, data agreement. The
// group scopes the check to the device's own L2 and L1s.
func (s *System) auditInnerHierarchy(grp *innerGroup) error {
	claims := make(map[mem.Addr][]holder)
	for _, l1 := range grp.l1s {
		l1.Held(func(addr mem.Addr, lvl chassis.Level, data *mem.Block, _ bool) {
			claims[addr] = append(claims[addr], holder{l1.Name(), l1.ID(), lvl, data})
		})
	}
	l2lines := make(map[mem.Addr]*mem.Block)
	grp.l2.Held(func(addr mem.Addr, _ chassis.Level, data *mem.Block, _ bool) { l2lines[addr] = data })
	for addr, cs := range claims {
		if _, ok := l2lines[addr]; !ok {
			return fmt.Errorf("inner inclusion broken: %v in an inner L1 but not the accel L2", addr)
		}
		nM := 0
		for _, c := range cs {
			if c.level == chassis.Modified {
				nM++
			} else if !mem.Equal(c.data, l2lines[addr]) && grp.l2.Owner(addr) == coherence.NodeNone {
				return fmt.Errorf("inner data divergence at %v: %s disagrees with accel L2", addr, c.name)
			}
		}
		if nM > 1 {
			return fmt.Errorf("inner SWMR violated at %v: %d modified copies", addr, nM)
		}
		if nM == 1 && len(cs) > 1 {
			return fmt.Errorf("inner SWMR violated at %v: owner beside sharers", addr)
		}
	}
	return nil
}
