package accel

import (
	"crossingguard/internal/coherence"
	"crossingguard/internal/network"
)

// The two-level accelerator hierarchy of paper Figure 2d: private MSI L1s
// per accelerator core behind a shared, inclusive accelerator L2. Only
// the L2 speaks the Crossing Guard interface, so data moves between
// accelerator cores without crossing to the host — the paper's
// demonstration that the interface "does not constrain cache design in
// terms of inclusivity or number of levels" (§2.4). The internal protocol
// is deliberately different from both host protocols: MSI, L2-serialized,
// with invalidation acks collected at the L2.

// InnerL1 is one accelerator core's private MSI L1 in the two-level
// design: Table 1 without E, speaking to the shared L2.
type InnerL1 struct{ private }

// NewInnerL1 builds and registers a private accelerator L1.
func NewInnerL1(id coherence.NodeID, name string, fab *network.Fabric, l2 coherence.NodeID, cfg Config) *InnerL1 {
	c := &InnerL1{}
	c.init(c, innerL1, id, name, fab, l2, cfg)
	return c
}

// innerTable is the inner L1's coverage vocabulary: states by AState,
// events the local three plus the shared L2's messages to an inner L1.
var innerTable = coherence.NewTable(aStateNames[:], localEvents,
	coherence.XDataS, coherence.XDataM, coherence.XInv, coherence.XWBAck)

var (
	xInv   = innerTable.Event(coherence.XInv)
	xDataM = innerTable.Event(coherence.XDataM)
	xDataS = innerTable.Event(coherence.XDataS)
	xWBAck = innerTable.Event(coherence.XWBAck)
)

// innerL1 is the inner L1's transition table: Table 1 without E, except
// that a shared copy leaves at once. The L2 acknowledges no PutS, so
// S/Replacement enters I, not B.
var innerL1 = coherence.NewRules("accel2L.L1", innerTable, []coherence.Row[AState, step]{
	on(AM, evLoad, none, AM),
	on(AM, evStore, none, AM),
	on(AM, evReplacement, coherence.XPutM, AB),
	on(AM, xInv, coherence.XInvWB, AI),
	on(AS, evLoad, none, AS),
	on(AS, evStore, coherence.XGetM, AB),
	on(AS, evReplacement, coherence.XPutS, AI),
	on(AS, xInv, coherence.XInvAck, AI),
	on(AI, evLoad, coherence.XGetS, AB),
	on(AI, evStore, coherence.XGetM, AB),
	on(AI, xInv, coherence.XInvAck, AI),
	on(AB, evLoad, none, AB),
	on(AB, evStore, none, AB),
	on(AB, xInv, coherence.XInvAck, AB),
	on(AB, xDataM, none, AM),
	on(AB, xDataS, none, AS),
	on(AB, xWBAck, none, AI),
})
