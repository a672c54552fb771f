// Package hammer implements the AMD-Hammer-like exclusive MOESI host
// protocol (modeled on gem5's MOESI_hammer, the paper's first baseline
// host): per-CPU private combined L1/L2 caches, and a directory+memory
// controller that keeps only an owner pointer and broadcasts every
// request to all peer caches. Every peer answers every forward (data if
// owner, ack otherwise), memory answers speculatively, and the requestor
// counts responses — the complexity Crossing Guard hides from
// accelerators (paper §2.4).
//
// Properties the paper relies on (§3.2.1):
//   - a request frequently triggers a response from every other cache;
//   - non-exclusive owned state O; GetS to an owner downgrades it to O;
//   - two-part writebacks (Put -> WBAck -> WBData);
//   - directory Nacks Puts from non-owners (a legitimate race);
//   - silent eviction of S blocks (so Crossing Guard drops PutS);
//   - host modifications for Transactional Crossing Guard: a
//     non-upgradable GetS_only/Fwd_GetS_only pair, caches sink unexpected
//     Nacks, and requestors count responses rather than acks (TxnMods).
//
// The cache and the directory run from transition tables in the row format
// of paper Table 1 (cacheRules, dirRules), which state these properties
// cell by cell and are the classes' coverage declarations.
package hammer

import (
	"slices"

	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/sim"
)

// CState is the per-line state of a private cache.
type CState int

// The MOESI stable states (CI..CM), then the transients, named for the
// stable state left and the one headed for.
const (
	CI CState = iota
	CS
	CE
	CO
	CM
	// Transients.
	CIS // GetS outstanding
	CIM // GetM outstanding
	CSM // GetM outstanding from S
	COM // GetM outstanding from O (upgrade; own data is authoritative)
	CMI // Put outstanding from M (dirty)
	COI // Put outstanding from O (dirty)
	CEI // Put outstanding from E (clean)
	CII // ownership lost while Put outstanding
)

var cStateNames = [...]string{
	CI: "I", CS: "S", CE: "E", CO: "O", CM: "M",
	CIS: "IS", CIM: "IM", CSM: "SM", COM: "OM",
	CMI: "MI", COI: "OI", CEI: "EI", CII: "II",
}

// String returns the state's protocol-table name ("I", "SM", ...).
func (s CState) String() string { return cStateNames[s] }

// Stable reports whether s is a MOESI stable state.
func (s CState) Stable() bool { return s <= CM }

// Level is the permission a stable, valid state holds.
func (s CState) Level() chassis.Level {
	switch s {
	case CM:
		return chassis.Modified
	case CO:
		return chassis.Owned
	case CE:
		return chassis.Exclusive
	}
	return chassis.Shared
}

// Config parameterizes a Hammer host instance.
type Config struct {
	Sets, Ways int
	// Latencies in ticks.
	HitLat sim.Time // cache hit latency
	DirLat sim.Time // directory lookup latency
	MemLat sim.Time // memory access latency
	// TxnMods enables the host-protocol modifications required by
	// Transactional Crossing Guard (paper §3.2.1).
	TxnMods bool
}

// DefaultConfig returns the geometry/latency set used by the benchmarks.
func DefaultConfig() Config {
	return Config{Sets: 128, Ways: 4, HitLat: 1, DirLat: 20, MemLat: 160}
}

// Controller-local coverage events: the first three events of the
// cache's table; message events follow.
const (
	evLoad = iota
	evStore
	evReplacement
)

var localEvents = []string{evLoad: "Load", evStore: "Store", evReplacement: "Replacement"}

// StateInventory reports the stable and transient states the cache's
// rows name, for the protocol-complexity comparison (experiment E2).
func StateInventory() (stable, transient []string) {
	for _, r := range cacheRules.Rows {
		names := &transient
		if r.St.Stable() {
			names = &stable
		}
		if !slices.Contains(*names, r.St.String()) {
			*names = append(*names, r.St.String())
		}
	}
	return stable, transient
}

// MessageInventory counts the cache's host messages from its rows, for
// experiment E2: the host requests it takes are the forwards its cells
// answer, the host responses the other messages, and the responses out the
// distinct messages its message cells send.
func MessageInventory() (reqsIn, respsIn, respsOut int) {
	send := func(r *rule) coherence.MsgType { return r.send }
	return cacheRules.Inventory(len(localEvents), func(r *rule) bool { return r.act == actAnswer }, send)
}
