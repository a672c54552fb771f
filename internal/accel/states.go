// Package accel implements accelerator cache hierarchies that speak the
// Crossing Guard coherence interface (paper §2.1):
//
//   - L1Cache: the single-level MESI accelerator cache of paper Table 1,
//     with 4 stable states and exactly ONE transient state (B);
//   - TwoLevel: private per-core L1s behind a shared inclusive
//     accelerator L2 that is the only agent talking to Crossing Guard
//     (paper Figure 2d), so data moves between accelerator cores without
//     crossing to the host;
//   - simplified variants (VI, MSI) built by degrading the interface, as
//     §2.1 describes ("an accelerator cache can implement a VI design by
//     sending only GetM requests; an MSI design is possible by treating
//     DataE as DataM"): Table 1 with those cells substituted.
//
// The contrast that motivates the paper: this L1 receives one host
// request (Inv) and four responses, versus the MESI host L1's four host
// requests and seven responses with six transient states.
package accel

import (
	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/sim"
)

// AState is the accelerator L1 line state — MESI plus the single
// transient B (Busy), exactly as in paper Table 1.
type AState int

const (
	AI AState = iota // Invalid
	AS               // Shared
	AE               // Exclusive (clean)
	AM               // Modified
	AB               // Busy: a request is outstanding to Crossing Guard
)

var aStateNames = [...]string{AI: "I", AS: "S", AE: "E", AM: "M", AB: "B"}

// String returns the paper's one-letter state name.
func (s AState) String() string { return aStateNames[s] }

// Stable reports whether s is a stable state.
func (s AState) Stable() bool { return s != AB }

// Level is the permission a stable, valid state holds.
func (s AState) Level() chassis.Level {
	switch s {
	case AM:
		return chassis.Modified
	case AE:
		return chassis.Exclusive
	}
	return chassis.Shared
}

// Config parameterizes accelerator caches.
type Config struct {
	L1Sets, L1Ways int
	L2Sets, L2Ways int // two-level hierarchies only
	HitLat         sim.Time
	L2Lat          sim.Time
}

// DefaultConfig returns the geometry used by the benchmarks (a 16 kB L1;
// the two-level configuration adds a 64 kB shared L2).
func DefaultConfig() Config {
	return Config{
		L1Sets: 64, L1Ways: 4,
		L2Sets: 128, L2Ways: 8,
		HitLat: 1, L2Lat: 6,
	}
}

// Controller-local coverage events: the first three events of every
// accelerator class's table (localEvents); message events follow.
const (
	evLoad = iota
	evStore
	evReplacement
)

var localEvents = []string{evLoad: "Load", evStore: "Store", evReplacement: "Replacement"}

// opEv is the coverage event of a core request.
func opEv(m *coherence.Msg) int {
	if m.Type == coherence.ReqStore {
		return evStore
	}
	return evLoad
}

// StateInventory reports the Table 1 cache's stable and transient state
// names, for the protocol-complexity comparison (experiment E2).
func StateInventory() (stable, transient []string) {
	for s := AI; s <= AB; s++ {
		if s.Stable() {
			stable = append(stable, s.String())
		} else {
			transient = append(transient, s.String())
		}
	}
	return
}
