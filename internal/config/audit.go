package config

import (
	"fmt"

	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/core"
	"crossingguard/internal/mem"
)

// Audit checks system-wide invariants at a quiesce point:
//
//  1. chassis.Audit's coherence rules over the host's home and every
//     cache that claims lines from it, values compared (hostScope);
//  2. the same rules inside each two-level device, its inner L1s under
//     its shared L2. The weak hierarchy's inner copies are deliberately
//     incoherent locally and are NOT checked (§2.1's flush model);
//  3. for Full State guards: the block table matches the accelerator
//     cache contents exactly (it is an inclusive directory);
//  4. quiesce hygiene: every line left in a guard's table is resident
//     (Full State) or kept by an InvAck the accelerator still owes — none
//     has open work, a parked request included, and none is empty
//     (core.Guard.CheckQuiesced); no delayed send or deferred
//     handler is still waiting for its tick; no cache, and not the home,
//     has a transaction open; and the machine's message and block pool
//     balances (auditPool).
//
// Audit implements tester.System.
func (s *System) Audit() error {
	for _, g := range s.Guards {
		if err := g.CheckQuiesced(); err != nil {
			return err
		}
	}
	if n := s.Fab.DelayedSends(); n != 0 {
		return fmt.Errorf("fabric: %d delayed sends still scheduled at quiesce", n)
	}
	if n := s.home.OpenTxns(); n != 0 {
		return fmt.Errorf("%s: %d transactions open at quiesce", s.home.Name(), n)
	}
	for _, c := range s.caches {
		if n := c.OpenTxns(); n != 0 {
			return fmt.Errorf("%s: %d transactions open at quiesce", c.Name(), n)
		}
	}
	if err := s.auditor().Audit(s.hostScope(guardedCache)); err != nil {
		return err
	}
	for i := range s.innerScopes {
		if err := s.auditor().Audit(&s.innerScopes[i]); err != nil {
			return err
		}
	}
	if err := s.auditGuardTables(); err != nil {
		return err
	}
	return s.auditPool()
}

// AuditHostOnly checks the invariants the paper guarantees even against a
// pathological accelerator (§2.2): the host caches keep their structural
// coherence (chassis.Audit's rules over the caches that speak the host
// protocol: the CPU caches, and on a guard-free machine the accelerator's
// own), and the host's ownership bookkeeping is sane wherever the guard
// is not involved: a guard recorded as owner is accepted without looking
// behind it, since its internal state is not trusted after fuzzing. Data
// values are deliberately NOT checked — the paper accepts that a buggy
// accelerator corrupts the data of pages it may write ("the host system
// eventually converges on a single value"), and guard-substituted zero
// blocks are expected.
func (s *System) AuditHostOnly() error { return s.auditor().Audit(s.hostScope(hostProtoCache)) }

// auditor returns the audits' storage, made on first use.
func (s *System) auditor() *auditState {
	if s.audit == nil {
		a := &auditState{}
		a.countFn, a.heldFn = a.count, a.hold
		s.audit = a
	}
	return s.audit
}

// auditState is the storage the audits keep from one audit to the next,
// so a machine audited after every run allocates nothing for it once
// warm: the coherence auditor, the host scopes (built at first use, and
// again after a cache is registered), and the guard-table check's line
// sets, made when a Full State guard is first checked, with the visitors
// that fill them.
type auditState struct {
	chassis.Auditor
	scopes  [2]*chassis.Scope // by last place: hostProtoCache, guardedCache
	held    map[mem.Addr]int  // guardedLines
	table   map[mem.Addr]bool // auditGuardTables
	n       int               // residentBlocks
	countFn chassis.HeldFunc
	heldFn  chassis.HeldFunc
}

// hostScope is the coherence audit of the caches placed up to last under
// the host's home. A guard stands for the cache it fronts: the home
// records that cache's lines under the guard's id. The full scope (last
// guardedCache) compares values, and lets a Full State guard stand for the
// lines its table keeps and a Transactional guard, which keeps no table,
// for any line. The host-only scope (hostProtoCache) compares no values
// and accepts a guard recorded as owner without looking behind it.
func (s *System) hostScope(last place) *chassis.Scope {
	full := last == guardedCache
	slot := &s.auditor().scopes[last-hostProtoCache]
	if *slot != nil {
		return *slot
	}
	sc := &chassis.Scope{Home: s.home, Values: full, Memory: s.Mem,
		Caches: make([]chassis.Claimant, 0, len(s.caches))}
	*slot = sc
	for _, c := range s.caches {
		if c.place > last {
			continue
		}
		as := c.ID()
		for _, g := range s.Guards {
			if c.place == guardedCache && g.AccelID() == c.ID() {
				as = g.ID()
			}
		}
		sc.Caches = append(sc.Caches, chassis.Claimant{Holder: c, As: as})
	}
	sc.Stands = func(owner coherence.NodeID, addr mem.Addr) bool {
		for _, g := range s.Guards {
			if g.ID() == owner {
				return !full || g.Mode() != core.FullState || g.Resident(addr)
			}
		}
		return false
	}
	return sc
}

// auditPool checks the pool's balance at quiesce: every message handed out
// has come back, and the blocks still out are exactly the ones resident in
// cache lines and guard tables. A leak is only a performance bug — the
// pool's Reset takes back whatever a run lost track of — but this is where
// it gets noticed. Three kinds of machine are exempt, because they lose
// messages by design: one with a fault injector (a message delivered
// twice or beside a corrupted copy leaves the pool for the run, and a
// dropped message's transaction never closes), one with a quarantined
// guard (the fenced device's open transactions, and the requests kept
// behind them, never finish), and one whose device was reset (that drops
// tables full of kept messages and whole caches of blocks until the
// pool's Reset).
func (s *System) auditPool() error {
	if s.Faults != nil {
		return nil
	}
	for _, g := range s.Guards {
		if g.Quarantined || g.Epoch != 0 {
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
	a := s.auditor()
	a.n = 0
	for _, c := range s.caches {
		c.Held(a.countFn)
	}
	s.home.Held(a.countFn)
	for _, g := range s.Guards {
		g.VisitBlocks(func(_ mem.Addr, _, _ core.Grant, hasCopy bool) {
			if hasCopy {
				a.n++
			}
		})
	}
	return a.n
}

func (a *auditState) count(mem.Addr, chassis.Level, *mem.Block, bool) { a.n++ }

func (a *auditState) hold(addr mem.Addr, lvl chassis.Level, _ *mem.Block, _ bool) {
	a.held[addr] = int(lvl)
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
		a := s.auditor()
		if a.table == nil {
			a.table = make(map[mem.Addr]bool)
		}
		tableAddrs := a.table
		clear(tableAddrs)
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
// a guard fronts at id, or is nil when Build wired none there. The map is
// the audit's, refilled by the next call.
func (s *System) guardedLines(id coherence.NodeID) map[mem.Addr]int {
	a := s.auditor()
	for _, c := range s.caches {
		if c.place == guardedCache && c.ID() == id {
			if a.held == nil {
				a.held = make(map[mem.Addr]int)
			}
			clear(a.held)
			c.Held(a.heldFn)
			return a.held
		}
	}
	return nil
}
