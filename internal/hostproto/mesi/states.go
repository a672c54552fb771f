// Package mesi implements the inclusive MESI two-level host protocol
// (modeled on gem5's MESI_Two_Level, the paper's second baseline host):
// private per-core L1 caches and a shared, inclusive L2 that holds exact
// sharer and owner information and serializes transactions per line.
//
// Properties the paper relies on (§2.4, §3.2.2):
//   - the L2 tells a GetM requestor how many invalidation acks to expect,
//     and sharers ack the requestor directly (ack counting at the L1);
//   - Fwd_GetS / Fwd_GetM pull data straight out of an owning L1
//     (cache-to-cache transfer);
//   - exact sharer tracking, so PutS is meaningful;
//   - host modifications for Transactional Crossing Guard: Ack and Data
//     are accepted interchangeably as forward responses, and the L2 acks
//     a requestor on the accelerator's behalf when Crossing Guard
//     forwards an unexpected writeback (enabled via Config.TxnMods).
//
// The L1 and the L2 run from transition tables in the row format of paper
// Table 1 (l1Rules, l2Rules), which state these properties cell by cell
// and are the classes' coverage declarations.
package mesi

import (
	"slices"

	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/sim"
)

// L1State is the per-line state of a private L1.
type L1State int

// The MESI stable states (L1I..L1M), then the transients.
const (
	L1I L1State = iota
	L1S
	L1E
	L1M
	// Transient states (paper: "six transient states, some of which
	// include extra information such as a dirty bit or counters").
	L1ISd  // GetS issued, awaiting data
	L1IMad // GetM issued, awaiting data and acks
	L1IMa  // GetM data received, awaiting remaining acks
	L1SMad // GetM issued from S, awaiting data and acks
	L1SMa  // GetM-from-S data received, awaiting remaining acks
	L1MIa  // PutM issued, awaiting WBAck
	L1IIa  // ownership lost while PutM outstanding, awaiting WBAck/cleanup
)

var l1StateNames = [...]string{
	L1I: "I", L1S: "S", L1E: "E", L1M: "M",
	L1ISd: "IS_D", L1IMad: "IM_AD", L1IMa: "IM_A",
	L1SMad: "SM_AD", L1SMa: "SM_A", L1MIa: "MI_A", L1IIa: "II_A",
}

// String returns the state's protocol-table name ("I", "IM_AD", ...).
func (s L1State) String() string { return l1StateNames[s] }

// Stable reports whether s is one of the four MESI stable states.
func (s L1State) Stable() bool { return s <= L1M }

// Level is the permission a stable, valid state holds.
func (s L1State) Level() chassis.Level {
	switch s {
	case L1M:
		return chassis.Modified
	case L1E:
		return chassis.Exclusive
	}
	return chassis.Shared
}

// L2State is the per-line state of the shared L2, from the point of view
// of the on-chip hierarchy.
type L2State int

const (
	// L2SS: data valid at the L2; zero or more L1 sharers.
	L2SS L2State = iota
	// L2MT: an L1 owns the line (E or M there); L2 data may be stale.
	L2MT
)

// String returns "SS" or "MT".
func (s L2State) String() string {
	if s == L2SS {
		return "SS"
	}
	return "MT"
}

// txnKind labels an open L2 transaction on a line.
type txnKind int

const (
	txnNone   txnKind = iota
	txnLookup         // L2 lookup latency in progress; line reserved
	txnFetch          // memory fetch in progress
	txnGetS           // GetS forwarded to owner; awaiting copy + unblock
	txnGetM           // GetM in progress; awaiting unblock (and maybe old-owner data hand-off)
	txnRecall         // inclusive eviction: invalidating L1 copies
)

func (k txnKind) String() string {
	switch k {
	case txnLookup:
		return "Lookup"
	case txnFetch:
		return "Fetch"
	case txnGetS:
		return "GetS"
	case txnGetM:
		return "GetM"
	case txnRecall:
		return "Recall"
	}
	return "None"
}

// Config parameterizes a MESI host instance.
type Config struct {
	L1Sets, L1Ways int
	L2Sets, L2Ways int
	// Latencies in ticks.
	L1HitLat sim.Time // L1 lookup/response latency
	L2Lat    sim.Time // L2 lookup latency
	MemLat   sim.Time // memory access latency
	// TxnMods enables the host-protocol modifications required by
	// Transactional Crossing Guard (paper §3.2.2).
	TxnMods bool
}

// DefaultConfig returns the geometry/latency set used by the benchmarks.
func DefaultConfig() Config {
	return Config{
		L1Sets: 64, L1Ways: 4,
		L2Sets: 256, L2Ways: 8,
		L1HitLat: 1, L2Lat: 20, MemLat: 160,
	}
}

// Controller-local coverage events: the first three events of the L1's
// table; message events follow.
const (
	evLoad = iota
	evStore
	evReplacement
)

var localEvents = []string{evLoad: "Load", evStore: "Store", evReplacement: "Replacement"}

// mesiMsgs is the whole MESI vocabulary: the events of both classes'
// tables, since each can record a message before it rejects it.
var mesiMsgs = []coherence.MsgType{
	coherence.MGetS, coherence.MGetM, coherence.MGetInstr, coherence.MPutM, coherence.MPutS,
	coherence.MDataE, coherence.MDataS, coherence.MDataAcks, coherence.MInv, coherence.MInvToL2,
	coherence.MFwdGetS, coherence.MFwdGetM, coherence.MWBAck, coherence.MInvAck, coherence.MInvAckToL2,
	coherence.MDataOwner, coherence.MCopyToL2, coherence.MUnblock,
}

// StateInventory reports the stable and transient states the L1's rows
// name, for the protocol-complexity comparison (paper §2.4 / experiment E2).
func StateInventory() (stable, transient []string) {
	for _, r := range l1Rules.Rows {
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

// MessageInventory counts the L1's host messages from its rows, for
// experiment E2: the host requests it takes are the messages its cells
// answer, the host responses the other messages, and the responses out the
// distinct messages its message cells send.
func MessageInventory() (reqsIn, respsIn, respsOut int) {
	send := func(r *rule) coherence.MsgType { return r.send }
	return l1Rules.Inventory(len(localEvents), func(r *rule) bool { return r.act == actAnswer }, send)
}
