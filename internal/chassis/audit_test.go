package chassis

import (
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
)

// Node ids of the fake machine: two CPU caches, a third cache, and an
// accelerator cache behind a guard, which the home records in its stead.
const (
	cpu0, cpu1, cpu2 coherence.NodeID = 10, 11, 12
	acc, guard       coherence.NodeID = 200, 300
)

// Two lines: the guard's table keeps a, not b.
const a, b = mem.Addr(0x1000), mem.Addr(0x1040)

// fl is one fake stable line; val is its data's first byte.
type fl struct {
	addr  mem.Addr
	lvl   Level
	val   byte
	dirty bool
}

func block(v byte) *mem.Block {
	var blk mem.Block
	blk[0] = v
	return &blk
}

// fakeCache claims fixed lines.
type fakeCache struct {
	name  string
	lines []fl
	wb    int
}

func (c fakeCache) Name() string   { return c.name }
func (c fakeCache) WBPending() int { return c.wb }
func (c fakeCache) Held(fn HeldFunc) {
	for _, l := range c.lines {
		fn(l.addr, l.lvl, block(l.val), l.dirty)
	}
}

// fakeHome records owners and keeps copies of lines. An inclusive one has
// no copy of the lines it does not keep; another reads them from memory.
type fakeHome struct {
	owners    map[mem.Addr]coherence.NodeID
	lines     []fl // lvl unused
	inclusive bool
	memory    *mem.Memory
}

func (h fakeHome) VisitOwned(fn func(mem.Addr, coherence.NodeID)) {
	for addr, o := range h.owners {
		fn(addr, o)
	}
}

func (h fakeHome) Line(addr mem.Addr) (coherence.NodeID, *mem.Block, bool) {
	owner, ok := h.owners[addr]
	if !ok {
		owner = coherence.NodeNone
	}
	for _, l := range h.lines {
		if l.addr == addr {
			return owner, block(l.val), true
		}
	}
	if h.inclusive {
		return owner, nil, false
	}
	return owner, h.memory.Peek(addr), true
}

func (h fakeHome) Held(fn HeldFunc) {
	for _, l := range h.lines {
		fn(l.addr, Exclusive, block(l.val), l.dirty)
	}
}

// TestAuditRules holds one row per rule per scope the machine audits, on
// fake caches and a fake home whose memory holds 1 at a and b. A row that
// names a violation fails when its rule is deleted; a row that passes
// fails when its rule is written too strict.
func TestAuditRules(t *testing.T) {
	memory := mem.NewMemory()
	memory.Write(a, block(1))
	memory.Write(b, block(1))
	// The three scopes differ as the machine's do: the full one compares
	// values and lets the guard stand for its table's line a; the
	// host-only one compares none and accepts the guard for any line; the
	// inner one stops at its home, which keeps every line it holds.
	scopes := map[string]func([]Claimant, fakeHome) Scope{
		"full": func(cs []Claimant, h fakeHome) Scope {
			h.memory = memory
			return Scope{Caches: cs, Home: h, Values: true, Memory: memory,
				Stands: func(o coherence.NodeID, addr mem.Addr) bool { return o == guard && addr == a }}
		},
		"host-only": func(cs []Claimant, h fakeHome) Scope {
			h.memory = memory
			return Scope{Caches: cs, Home: h, Memory: memory,
				Stands: func(o coherence.NodeID, _ mem.Addr) bool { return o == guard }}
		},
		"inner": func(cs []Claimant, h fakeHome) Scope {
			h.inclusive = true
			return Scope{Caches: cs, Home: h, Values: true}
		},
	}
	c := func(id coherence.NodeID, lines ...fl) Claimant {
		names := map[coherence.NodeID]string{cpu0: "cpu0", cpu1: "cpu1", cpu2: "cpu2", acc: "acc"}
		as := id
		if id == acc {
			as = guard
		}
		return Claimant{fakeCache{name: names[id], lines: lines}, as}
	}
	owns := func(addr mem.Addr, o coherence.NodeID) map[mem.Addr]coherence.NodeID {
		return map[mem.Addr]coherence.NodeID{addr: o}
	}
	homeOf := func(v byte) []fl { return []fl{{a, Shared, v, false}} } // the home keeps a, reading v

	for _, row := range []struct {
		scope, name string
		caches      []Claimant
		home        fakeHome
		want        string // "" passes
	}{
		// 1. SWMR.
		{"full", "two owners", []Claimant{c(cpu0, fl{a, Modified, 2, true}), c(cpu1, fl{a, Modified, 2, true})},
			fakeHome{owners: owns(a, cpu0)}, "SWMR violated at 0x1000: cpu0 and cpu1 both own"},
		{"full", "two owners among other lines", []Claimant{c(cpu0, fl{a, Modified, 2, true}, fl{b, Shared, 1, false}),
			c(cpu1, fl{b, Shared, 1, false}, fl{a, Modified, 2, true})}, fakeHome{owners: owns(a, cpu0)},
			"SWMR violated at 0x1000: cpu0 and cpu1 both own"},
		{"inner", "two owners", []Claimant{c(cpu0, fl{a, Modified, 2, true}), c(cpu1, fl{a, Modified, 2, true})},
			fakeHome{owners: owns(a, cpu0), lines: homeOf(1)}, "SWMR violated at 0x1000: cpu0 and cpu1 both own"},
		{"host-only", "E beside a sharer", []Claimant{c(cpu0, fl{a, Exclusive, 1, false}), c(cpu1, fl{a, Shared, 1, false})},
			fakeHome{owners: owns(a, cpu0)}, "SWMR violated at 0x1000: cpu0 owns exclusively beside 1 sharers"},
		{"full", "O beside sharers", []Claimant{c(cpu0, fl{a, Owned, 2, true}), c(cpu1, fl{a, Shared, 2, false}),
			c(cpu2, fl{a, Shared, 2, false})}, fakeHome{owners: owns(a, cpu0)}, ""},
		// 2. The recorded owner holds the line above S.
		{"full", "recorded owner holds nothing", []Claimant{c(cpu0), c(cpu1, fl{a, Shared, 1, false})},
			fakeHome{owners: owns(a, cpu0)}, "0x1000: home records owner 10 but that cache does not own"},
		{"host-only", "recorded owner shares", []Claimant{c(cpu0, fl{a, Shared, 1, false})},
			fakeHome{owners: owns(a, cpu0)}, "0x1000: home records owner 10 but that cache does not own"},
		{"inner", "recorded owner holds nothing", []Claimant{c(cpu0)},
			fakeHome{owners: owns(a, cpu0), lines: homeOf(1)}, "0x1000: home records owner 10 but that cache does not own"},
		{"full", "guard stands for its cache", []Claimant{c(cpu0), c(acc, fl{b, Modified, 2, true})},
			fakeHome{owners: owns(b, guard)}, ""},
		{"full", "guard stands for its table's line", []Claimant{c(acc)}, fakeHome{owners: owns(a, guard)}, ""},
		{"full", "guard's table lacks the line", []Claimant{c(acc)}, fakeHome{owners: owns(b, guard)},
			"0x1040: home records owner 300 but that cache does not own"},
		{"host-only", "guard owner accepted", nil, fakeHome{owners: owns(b, guard)}, ""},
		// 3. A holder above S is the recorded owner.
		{"full", "owner the home does not record", []Claimant{c(cpu0, fl{a, Exclusive, 1, false})},
			fakeHome{}, "0x1000: cpu0 owns but its home records owner -1"},
		{"full", "guarded cache recorded under its own id", []Claimant{c(acc, fl{b, Modified, 2, true})},
			fakeHome{owners: owns(b, acc)}, "0x1040: acc owns but its home records owner 200"},
		{"host-only", "owner recorded as another", []Claimant{c(cpu0, fl{a, Modified, 2, true}), c(cpu1)},
			fakeHome{owners: owns(a, cpu1)}, "0x1000: cpu0 owns but its home records owner 11"},
		{"inner", "owner the home does not record", []Claimant{c(cpu0, fl{a, Modified, 2, true})},
			fakeHome{lines: homeOf(1)}, "0x1000: cpu0 owns but its home records owner -1"},
		// 4. Values.
		{"full", "divergent sharer", []Claimant{c(cpu0, fl{a, Shared, 1, false}), c(cpu1, fl{a, Shared, 3, false})},
			fakeHome{}, "data divergence at 0x1000: sharer cpu1 disagrees with its home"},
		{"full", "sharer diverges from the O owner", []Claimant{c(cpu0, fl{a, Owned, 2, true}), c(cpu1, fl{a, Shared, 1, false})},
			fakeHome{owners: owns(a, cpu0)}, "data divergence at 0x1000: sharer cpu1 disagrees with cpu0"},
		{"inner", "divergent sharer", []Claimant{c(cpu0, fl{a, Shared, 3, false})},
			fakeHome{lines: homeOf(1)}, "data divergence at 0x1000: sharer cpu0 disagrees with its home"},
		{"host-only", "values ignored", []Claimant{c(cpu0, fl{a, Shared, 1, false}), c(cpu1, fl{a, Shared, 3, false})},
			fakeHome{}, ""},
		{"host-only", "values ignored under an inclusive home", []Claimant{c(cpu0, fl{a, Exclusive, 3, false})},
			fakeHome{owners: owns(a, cpu0), inclusive: true, lines: homeOf(1)}, ""},
		{"full", "clean owner unequal to the home", []Claimant{c(cpu0, fl{a, Exclusive, 5, false})},
			fakeHome{owners: owns(a, cpu0)}, "data divergence at 0x1000: clean owner cpu0 disagrees with its home"},
		{"full", "dirty owner unequal to the home", []Claimant{c(cpu0, fl{a, Modified, 5, true})},
			fakeHome{owners: owns(a, cpu0)}, ""},
		{"inner", "clean owner unequal to the home", []Claimant{c(cpu0, fl{a, Modified, 5, false})},
			fakeHome{owners: owns(a, cpu0), lines: homeOf(1)}, "data divergence at 0x1000: clean owner cpu0 disagrees with its home"},
		// 5. Inclusion.
		{"full", "line missing from an inclusive home", []Claimant{c(cpu0, fl{b, Shared, 1, false})},
			fakeHome{inclusive: true, lines: homeOf(1)}, "inclusion broken at 0x1040: cpu0 holds it but its home does not"},
		{"host-only", "line missing from an inclusive home", []Claimant{c(cpu0, fl{b, Shared, 1, false})},
			fakeHome{inclusive: true}, "inclusion broken at 0x1040: cpu0 holds it but its home does not"},
		{"inner", "line missing from the home", []Claimant{c(cpu0, fl{b, Shared, 1, false})},
			fakeHome{lines: homeOf(1)}, "inclusion broken at 0x1040: cpu0 holds it but its home does not"},
		{"full", "line missing from a home that is not inclusive", []Claimant{c(cpu0, fl{b, Shared, 1, false})},
			fakeHome{lines: homeOf(1)}, ""},
		// 6. The home's own rule.
		{"full", "clean home line unequal to memory", nil, fakeHome{inclusive: true, lines: homeOf(4)},
			"data divergence at 0x1000: clean home line disagrees with memory"},
		{"full", "lowest of two clean home lines", nil,
			fakeHome{inclusive: true, lines: []fl{{a, Shared, 4, false}, {b, Shared, 4, false}}},
			"data divergence at 0x1000: clean home line disagrees with memory"},
		{"full", "dirty home line", nil, fakeHome{inclusive: true, lines: []fl{{a, Shared, 4, true}}}, ""},
		{"host-only", "home values ignored", nil, fakeHome{inclusive: true, lines: homeOf(4)}, ""},
		// Quiesce, and the order of several violations.
		{"full", "writebacks pending", []Claimant{{fakeCache{name: "cpu0", wb: 1}, cpu0}},
			fakeHome{}, "cpu0: 1 writebacks pending at quiesce"},
		{"full", "lowest address first", []Claimant{c(cpu0, fl{b, Modified, 2, true}, fl{a, Shared, 3, false}),
			c(cpu1, fl{b, Modified, 2, true})}, fakeHome{owners: owns(b, cpu0)},
			"data divergence at 0x1000: sharer cpu0 disagrees with its home"},
		{"full", "home line below the claims", []Claimant{c(cpu0, fl{b, Shared, 3, false})},
			fakeHome{lines: homeOf(4)}, "data divergence at 0x1000: clean home line disagrees with memory"},
	} {
		t.Run(row.scope+"/"+row.name, func(t *testing.T) {
			err := Audit(scopes[row.scope](row.caches, row.home))
			switch {
			case row.want == "" && err != nil:
				t.Fatalf("audit = %v, want a pass", err)
			case row.want != "" && (err == nil || !strings.Contains(err.Error(), row.want)):
				t.Fatalf("audit = %v, want %q", err, row.want)
			}
		})
	}
}
