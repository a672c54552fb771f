package accel

import (
	"strings"

	"crossingguard/internal/coherence"
	"crossingguard/internal/network"
)

// L1Cache is the single-level accelerator cache of paper Table 1:
// MESI stable states, a single transient state B, five requests out,
// four responses in, one host request (Inv), three responses out.
type L1Cache struct{ private }

// NewL1Cache builds and registers a Table 1 accelerator cache. Its
// coverage declares exactly paper Table 1, so an unexpected transition
// fails conformance.
func NewL1Cache(id coherence.NodeID, name string, fab *network.Fabric, xg coherence.NodeID, cfg Config) *L1Cache {
	c := &L1Cache{}
	c.init(c, table1, id, name, fab, xg, cfg)
	return c
}

// l1Table is the Table 1 cache's coverage vocabulary: states by AState,
// events the local three plus the interface's five messages to the cache.
var l1Table = coherence.NewTable(aStateNames[:], localEvents,
	coherence.ADataS, coherence.ADataE, coherence.ADataM, coherence.AWBAck, coherence.AInv)

var (
	aInv   = l1Table.Event(coherence.AInv)
	aDataM = l1Table.Event(coherence.ADataM)
	aDataE = l1Table.Event(coherence.ADataE)
	aDataS = l1Table.Event(coherence.ADataS)
	aWBAck = l1Table.Event(coherence.AWBAck)
)

// table1 is paper Table 1, in the paper's order of rows and columns: every
// cell that is not "impossible".
var table1 = coherence.NewRules("accel.L1", l1Table, []coherence.Row[AState, step]{
	on(AM, evLoad, none, AM),
	on(AM, evStore, none, AM),
	on(AM, evReplacement, coherence.APutM, AB),
	on(AM, aInv, coherence.ADirtyWB, AI),
	on(AE, evLoad, none, AE),
	on(AE, evStore, none, AM), // silent upgrade
	on(AE, evReplacement, coherence.APutE, AB),
	on(AE, aInv, coherence.ACleanWB, AI),
	on(AS, evLoad, none, AS),
	on(AS, evStore, coherence.AGetM, AB),
	on(AS, evReplacement, coherence.APutS, AB),
	on(AS, aInv, coherence.AInvAck, AI),
	on(AI, evLoad, coherence.AGetS, AB),
	on(AI, evStore, coherence.AGetM, AB),
	on(AI, aInv, coherence.AInvAck, AI),
	// B stalls the core, answers an Inv (the guard resolves a Put/Inv
	// race) and leaves on the guard's response.
	on(AB, evLoad, none, AB),
	on(AB, evStore, none, AB),
	on(AB, evReplacement, none, AB),
	on(AB, aInv, coherence.AInvAck, AB),
	on(AB, aDataM, none, AM),
	on(AB, aDataE, none, AE),
	on(AB, aDataS, none, AS),
	on(AB, aWBAck, none, AI),
})

// The degraded designs of paper §2.1: "an MSI design is possible by
// treating DataE as DataM", sending only dirty writebacks, and "a VI
// design by sending only GetM requests".
var (
	tableMSI = table1.With(
		on(AB, aDataE, none, AM),
		on(AE, evReplacement, coherence.APutM, AB))
	tableVI = tableMSI.With(on(AI, evLoad, coherence.AGetM, AB))
)

// Table1 renders paper Table 1 from the rows the cache runs: the event
// names, then one row per state, the state's name first.
func Table1() (events []string, rows [][]string) { return table1.Render(cellText) }

// cellText renders a cell as the paper writes it: the core's hit or stall,
// the request issued or the answer sent, then "/ next" on a change of
// state.
func cellText(st AState, ev int, s *step) string {
	_, msg, _ := strings.Cut(s.send.String(), ":") // "A:PutM" is "PutM"
	do := "stall"
	switch {
	case s.send != none && ev < len(localEvents):
		do = "issue " + msg
	case s.send != none:
		do = "send " + msg
	case ev >= len(localEvents): // a response, which only moves the state
		do = ""
	case st.Stable():
		do = "hit"
	}
	if s.next == st {
		return do
	}
	return strings.TrimSpace(do + " / " + s.next.String())
}

// MessageInventory counts Table 1's messages with the guard, for the
// protocol-complexity comparison (experiment E2): the guard requests the
// cache takes are the message events some cell answers, the guard
// responses the rest, and the answers out the distinct messages those
// cells send.
func MessageInventory() (reqsIn, respsIn, respsOut int) {
	send := func(s *step) coherence.MsgType { return s.send }
	return table1.Inventory(len(localEvents), func(s *step) bool { return s.send != none }, send)
}
