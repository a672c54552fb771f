package chassis

import (
	"cmp"
	"fmt"
	"slices"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
)

// Holder is a cache as the coherence audit reads it.
type Holder interface {
	Name() string
	WBPending() int // write-backs still in flight: none at a quiesce
	Held(fn HeldFunc)
}

// Claimant is one cache of an audit scope, with the node id its home
// records it under: its own, or the guard's for the cache a guard fronts.
type Claimant struct {
	Holder
	As coherence.NodeID
}

// Claimants lists caches that their home records under their own ids.
func Claimants[C interface {
	Holder
	ID() coherence.NodeID
}](cs []C) []Claimant {
	out := make([]Claimant, len(cs))
	for i, c := range cs {
		out[i] = Claimant{c, c.ID()}
	}
	return out
}

// Home is what the audit reads of the node below a scope's caches.
type Home interface {
	// Line reports addr's line as the home sees it: the owner it records
	// (coherence.NodeNone for none), its copy, and whether it has one. An
	// inclusive home has a copy only of the lines it holds; a home that
	// keeps no data always has memory's.
	Line(addr mem.Addr) (owner coherence.NodeID, data *mem.Block, held bool)
	// VisitOwned reports every idle line with a recorded owner.
	VisitOwned(fn func(addr mem.Addr, owner coherence.NodeID))
	// Held reports the home's own lines, dirty relative to memory.
	Held(fn HeldFunc)
}

// Scope is one coherence audit: the caches that claim lines from one
// home, checked at a quiesce by the rules Audit lists.
type Scope struct {
	Caches []Claimant
	Home   Home
	// Values turns on the value rules (4 and 6).
	Values bool
	// Memory is the store below the home, which a clean home line equals
	// (rule 6); nil when the scope stops at the home.
	Memory *mem.Memory
	// Stands reports whether owner, recorded by the home for addr while no
	// claimant holds the line above S, still answers for it: a guard's
	// Full State table keeps the line, or the scope does not look behind
	// guards. Nil: no recorded owner stands in for a cache.
	Stands func(owner coherence.NodeID, addr mem.Addr) bool
}

// claim is one cache's stable copy of one line; who indexes Scope.Caches.
type claim struct {
	addr  mem.Addr
	data  *mem.Block
	who   int32
	lvl   Level
	dirty bool
}

// Audit checks a scope at a quiesce point, after every claimant's
// write-backs have drained:
//
//  1. SWMR: at most one claimant holds a line above S; E and M sit
//     alone, O may sit beside sharers;
//  2. the home's recorded owner holds the line above S, or stands for it
//     (Scope.Stands);
//  3. a claimant above S is the owner the home records;
//  4. with Values, a sharer equals the owner's data, or the home's copy
//     when nobody owns the line, and an owner that reports clean data
//     equals the home's copy;
//  5. the home has a copy of every line claimed above it: an inclusive
//     home holds it;
//  6. with Values and Memory, a clean home line equals memory.
//
// Of several violations it reports the one at the lowest address, so a
// failure reads the same on every run. The claims are one slice, counted
// before it is filled and sorted by address: the audit runs inside
// measured work, and a map per line, or a slice regrown as it fills,
// costs objects and bytes per line.
func Audit(sc Scope) error {
	var a Auditor
	return a.Audit(&sc)
}

// Auditor runs Audit and keeps its storage — the claims slice and the
// visitors it hands the caches — for the next audit, so a machine that is
// audited after every run allocates nothing for it once warm. Its zero
// value is ready to use; it is not safe for concurrent audits.
type Auditor struct {
	sc     *Scope
	claims []claim
	who    int32
	n      int
	bad    mem.Addr
	err    error
	// The visitors, bound once: Held and VisitOwned take them through
	// interfaces, where a closure would be allocated per call.
	countFn, addFn, homeFn HeldFunc
	ownedFn                func(addr mem.Addr, owner coherence.NodeID)
}

// Audit is the package's Audit over sc, on a's storage.
func (a *Auditor) Audit(sc *Scope) error {
	if a.countFn == nil {
		a.countFn, a.addFn, a.homeFn, a.ownedFn = a.count, a.add, a.homeLine, a.owned
	}
	a.sc, a.n, a.err, a.bad = sc, 0, nil, 0
	for _, c := range sc.Caches {
		if wb := c.WBPending(); wb != 0 {
			return fmt.Errorf("%s: %d writebacks pending at quiesce", c.Name(), wb)
		}
		c.Held(a.countFn)
	}
	clear(a.claims)
	a.claims = slices.Grow(a.claims[:0], a.n)
	for i, c := range sc.Caches {
		a.who = int32(i)
		c.Held(a.addFn)
	}
	claims := a.claims
	slices.SortFunc(claims, func(a, b claim) int {
		if a.addr != b.addr {
			return cmp.Compare(a.addr, b.addr)
		}
		return int(a.who - b.who)
	})

	// Rules 2 and 6 visit the home's lines in its own order and keep the
	// lowest line that breaks one; the walk of the claims stops past it.
	sc.Home.VisitOwned(a.ownedFn)
	if sc.Values && sc.Memory != nil {
		sc.Home.Held(a.homeFn)
	}
	for len(claims) > 0 && (a.err == nil || claims[0].addr <= a.bad) {
		n := 1
		for n < len(claims) && claims[n].addr == claims[0].addr {
			n++
		}
		if e := sc.line(claims[:n]); e != nil {
			return e
		}
		claims = claims[n:]
	}
	return a.err
}

func (a *Auditor) count(mem.Addr, Level, *mem.Block, bool) { a.n++ }

func (a *Auditor) add(addr mem.Addr, lvl Level, data *mem.Block, dirty bool) {
	a.claims = append(a.claims, claim{addr, data, a.who, lvl, dirty})
}

// note keeps the violation at the lowest address.
func (a *Auditor) note(addr mem.Addr, e error) {
	if a.err == nil || addr < a.bad {
		a.bad, a.err = addr, e
	}
}

// owned applies rule 2 to one line the home records an owner for.
func (a *Auditor) owned(addr mem.Addr, owner coherence.NodeID) {
	claims := a.claims
	i, _ := slices.BinarySearchFunc(claims, addr, func(c claim, a mem.Addr) int { return cmp.Compare(c.addr, a) })
	for ; i < len(claims) && claims[i].addr == addr; i++ {
		if claims[i].lvl != Shared {
			return // rule 3 judges the holder
		}
	}
	if a.sc.Stands == nil || !a.sc.Stands(owner, addr) {
		a.note(addr, fmt.Errorf("%v: home records owner %d but that cache does not own", addr, owner))
	}
}

// homeLine applies rule 6 to one of the home's lines.
func (a *Auditor) homeLine(addr mem.Addr, _ Level, data *mem.Block, dirty bool) {
	if !dirty && !mem.Equal(data, a.sc.Memory.Peek(addr)) {
		a.note(addr, fmt.Errorf("data divergence at %v: clean home line disagrees with memory", addr))
	}
}

// line applies rules 1 and 3-5 to the claims on one line.
func (sc *Scope) line(run []claim) error {
	addr := run[0].addr
	name := func(c *claim) string { return sc.Caches[c.who].Name() }
	var owner *claim
	sharers := 0
	for i := range run {
		if run[i].lvl == Shared {
			sharers++
			continue
		}
		if owner != nil {
			return fmt.Errorf("SWMR violated at %v: %s and %s both own", addr, name(owner), name(&run[i]))
		}
		owner = &run[i]
	}
	if owner != nil && owner.lvl != Owned && sharers > 0 {
		return fmt.Errorf("SWMR violated at %v: %s owns exclusively beside %d sharers", addr, name(owner), sharers)
	}
	rec, home, held := sc.Home.Line(addr)
	if owner != nil && sc.Caches[owner.who].As != rec {
		return fmt.Errorf("%v: %s owns but its home records owner %d", addr, name(owner), rec)
	}
	if !held {
		return fmt.Errorf("inclusion broken at %v: %s holds it but its home does not", addr, name(&run[0]))
	}
	if !sc.Values {
		return nil
	}
	ref, whose := home, "its home"
	if owner != nil {
		if !owner.dirty && !mem.Equal(owner.data, home) {
			return fmt.Errorf("data divergence at %v: clean owner %s disagrees with its home", addr, name(owner))
		}
		ref, whose = owner.data, name(owner)
	}
	for i := range run {
		if run[i].lvl == Shared && !mem.Equal(run[i].data, ref) {
			return fmt.Errorf("data divergence at %v: sharer %s disagrees with %s", addr, name(&run[i]), whose)
		}
	}
	return nil
}
