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
package hammer

import (
	"crossingguard/internal/chassis"
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

// owned reports whether this state must supply data to forwards.
func (s CState) owned() bool {
	switch s {
	case CM, CO, CE, COM, CMI, COI, CEI:
		return true
	}
	return false
}

// dirtyWB reports whether data written back from this state is modified
// relative to memory.
func (s CState) dirtyWB() bool {
	switch s {
	case CM, CO, COM, CMI, COI:
		return true
	}
	return false
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

// StateInventory reports the cache's stable and transient state names,
// for the protocol-complexity comparison (experiment E2).
func StateInventory() (stable, transient []string) {
	for s := CI; s <= CII; s++ {
		if s.Stable() {
			stable = append(stable, s.String())
		} else {
			transient = append(transient, s.String())
		}
	}
	return
}
