package accel

import (
	"slices"
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
var table1 = newTable("accel.L1", l1Table, []row{
	{AM, evLoad, none, AM},
	{AM, evStore, none, AM},
	{AM, evReplacement, coherence.APutM, AB},
	{AM, aInv, coherence.ADirtyWB, AI},
	{AE, evLoad, none, AE},
	{AE, evStore, none, AM}, // silent upgrade
	{AE, evReplacement, coherence.APutE, AB},
	{AE, aInv, coherence.ACleanWB, AI},
	{AS, evLoad, none, AS},
	{AS, evStore, coherence.AGetM, AB},
	{AS, evReplacement, coherence.APutS, AB},
	{AS, aInv, coherence.AInvAck, AI},
	{AI, evLoad, coherence.AGetS, AB},
	{AI, evStore, coherence.AGetM, AB},
	{AI, aInv, coherence.AInvAck, AI},
	// B stalls the core, answers an Inv (the guard resolves a Put/Inv
	// race) and leaves on the guard's response.
	{AB, evLoad, none, AB},
	{AB, evStore, none, AB},
	{AB, evReplacement, none, AB},
	{AB, aInv, coherence.AInvAck, AB},
	{AB, aDataM, none, AM},
	{AB, aDataE, none, AE},
	{AB, aDataS, none, AS},
	{AB, aWBAck, none, AI},
})

// The degraded designs of paper §2.1: "an MSI design is possible by
// treating DataE as DataM", sending only dirty writebacks, and "a VI
// design by sending only GetM requests".
var (
	tableMSI = table1.with(
		row{AB, aDataE, none, AM},
		row{AE, evReplacement, coherence.APutM, AB})
	tableVI = tableMSI.with(row{AI, evLoad, coherence.AGetM, AB})
)

// Table1 renders paper Table 1 from the rows the cache runs: the event
// names, then one row per state, the state's name first.
func Table1() (events []string, rows [][]string) { return table1.render() }

// render returns the table as the paper prints it: states and events in
// the order the rows first name them, "-" where there is no row.
func (t *table) render() (events []string, rows [][]string) {
	var sts []AState
	var evs []int
	for _, r := range t.rows {
		if !slices.Contains(sts, r.st) {
			sts = append(sts, r.st)
		}
		if !slices.Contains(evs, r.ev) {
			evs = append(evs, r.ev)
			events = append(events, t.vocab.Events()[r.ev])
		}
	}
	for _, st := range sts {
		out := []string{st.String()}
		for _, ev := range evs {
			cell := "-"
			if i := t.find(st, ev); i >= 0 {
				cell = t.rows[i].String()
			}
			out = append(out, cell)
		}
		rows = append(rows, out)
	}
	return events, rows
}

// String renders r as the paper writes a cell: the core's hit or stall,
// the request issued or the answer sent, then "/ next" on a change of
// state.
func (r row) String() string {
	_, msg, _ := strings.Cut(r.send.String(), ":") // "A:PutM" is "PutM"
	do := "stall"
	switch {
	case r.send != none && r.ev < len(localEvents):
		do = "issue " + msg
	case r.send != none:
		do = "send " + msg
	case r.ev >= len(localEvents): // a response, which only moves the state
		do = ""
	case r.st.Stable():
		do = "hit"
	}
	if r.next == r.st {
		return do
	}
	return strings.TrimSpace(do + " / " + r.next.String())
}

// MessageInventory counts Table 1's messages with the guard, for the
// protocol-complexity comparison (experiment E2): the guard requests the
// cache takes are the message events some cell answers, the guard
// responses the rest, and the answers out the distinct messages those
// cells send.
func MessageInventory() (reqsIn, respsIn, respsOut int) {
	answered, answers := map[int]bool{}, map[coherence.MsgType]bool{}
	for _, r := range table1.rows {
		if r.ev >= len(localEvents) {
			answered[r.ev] = answered[r.ev] || r.send != none
			answers[r.send] = true
		}
	}
	for _, a := range answered {
		if a {
			reqsIn++
		} else {
			respsIn++
		}
	}
	delete(answers, none)
	return reqsIn, respsIn, len(answers)
}
