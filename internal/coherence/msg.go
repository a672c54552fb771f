// Package coherence defines the vocabulary shared by every protocol agent
// in the system: node identities, coherence message types (for the
// Crossing Guard accelerator interface, the Hammer-like host protocol and
// the MESI two-level host protocol), the controller interface, and the
// transition-coverage recorder used to report stress-test coverage the
// same way the paper does (§4.1).
package coherence

import (
	"fmt"

	"crossingguard/internal/mem"
)

// NodeID identifies a protocol agent (cache, directory, guard, sequencer).
type NodeID int

// NodeNone is the zero/invalid node.
const NodeNone NodeID = -1

// MsgType enumerates every coherence message in the system. Types are
// grouped by protocol: A* is the Crossing Guard accelerator interface
// (paper §2.1), H* the Hammer-like host protocol, M* the MESI two-level
// host protocol, and X* accelerator-internal messages for the two-level
// accelerator hierarchy.
type MsgType int32

const (
	MsgInvalid MsgType = iota // zero value; no valid message carries it

	// --- Crossing Guard accelerator interface (paper §2.1) ---
	// Accelerator -> XG requests (exactly five).
	AGetS
	AGetM // request write permission
	APutM // evict modified data; carries data
	APutE // evict exclusive (clean) data; carries data
	APutS // evict a shared copy (no data)
	// XG -> accelerator responses (exactly four).
	ADataS
	ADataE // data with exclusive (clean) permission
	ADataM // data with write permission
	AWBAck // writeback acknowledged; line is no longer cached
	// XG -> accelerator request (exactly one).
	AInv
	// Accelerator -> XG responses (exactly three).
	AInvAck
	ACleanWB // carries data
	ADirtyWB // carries data
	// XG -> accelerator quarantine extension (not part of the paper's
	// §2.1 vocabulary): service refused to a fenced accelerator. Only a
	// quarantined — hence already misbehaving — accelerator ever sees it.
	ANack

	// --- Hammer-like exclusive MOESI host protocol ---
	// cache -> directory
	HGetS
	HGetSOnly // non-upgradable GetS (host modification for Transactional XG)
	HGetM     // request write permission
	HPut      // first half of two-part writeback (no data)
	HWBData   // second half (data)
	HUnblock  // requestor -> directory: transaction complete
	// directory -> cache
	HFwdGetS
	HFwdGetSOnly // forwarded non-upgradable GetS
	HFwdGetM     // owner must send data to Requestor and invalidate
	HWBAck       // writeback accepted
	HNack        // writeback raced a forward; retry resolved at the cache
	HMemData     // speculative memory data to the requestor
	// cache -> cache (responses to the requestor)
	HData
	HAck // invalidation/probe acknowledgement to the requestor

	// --- MESI two-level inclusive host protocol ---
	// L1 -> L2
	MGetS
	MGetM     // request write permission
	MGetInstr // non-upgradable (instruction-style) GetS
	MPutM     // writeback, carries data, Dirty flag distinguishes PutM/PutE
	MPutS     // sharer eviction notice (exact sharer tracking)
	// L2 -> L1
	MDataE    // exclusive grant (zero acks expected)
	MDataS    // shared grant
	MDataAcks // data for a GetM; Acks = invalidation acks to await
	MInv      // invalidate; Requestor = who to ack
	MInvToL2  // invalidate; ack back to the L2 (inclusive eviction)
	MFwdGetS  // owner must send data to Requestor and a copy to the L2
	MFwdGetM  // owner must send data to Requestor and invalidate
	MWBAck    // writeback acknowledged
	// L1 -> L1 / L1 -> L2 responses
	MInvAck     // to the requestor named in MInv
	MInvAckToL2 // to the L2 (inclusive eviction)
	MDataOwner  // owner's data directly to the requestor
	MCopyToL2   // downgrade copy of owner data back to the L2
	MUnblock    // requestor -> L2: transaction complete

	// --- Accelerator-internal (two-level accelerator hierarchy) ---
	// accel L1 -> accel L2
	XGetS
	XGetM // request write permission
	XPutM // evict modified data; carries data
	XPutS // evict a shared copy (no data)
	// accel L2 -> accel L1
	XDataS
	XDataE // data with exclusive (clean) permission
	XDataM // data with write permission
	XInv   // invalidate
	XWBAck // writeback acknowledged
	// accel L1 -> accel L2
	XInvAck
	XInvWB // invalidation response carrying dirty data

	// --- Sequencer-level (core <-> its private cache) ---
	ReqLoad
	ReqStore  // store request; Val carries the byte to write
	RespLoad  // load completion; Val carries the byte read
	RespStore // store completion

	numMsgTypes
)

// NumMsgTypes is the size of the MsgType value space (one past the last
// defined type). Hot-path accounting indexes fixed arrays of this length
// instead of maps; values outside [0, NumMsgTypes) — possible only when a
// fuzzer forges a message with an undefined type — must be clamped to
// MsgInvalid by the indexer.
const NumMsgTypes = int(numMsgTypes)

var msgTypeNames = [...]string{
	MsgInvalid: "Invalid",

	AGetS: "A:GetS", AGetM: "A:GetM", APutM: "A:PutM", APutE: "A:PutE", APutS: "A:PutS",
	ADataS: "A:DataS", ADataE: "A:DataE", ADataM: "A:DataM", AWBAck: "A:WBAck",
	AInv: "A:Inv", AInvAck: "A:InvAck", ACleanWB: "A:CleanWB", ADirtyWB: "A:DirtyWB",
	ANack: "A:Nack",

	HGetS: "H:GetS", HGetSOnly: "H:GetSOnly", HGetM: "H:GetM", HPut: "H:Put",
	HWBData: "H:WBData", HUnblock: "H:Unblock",
	HFwdGetS: "H:FwdGetS", HFwdGetSOnly: "H:FwdGetSOnly", HFwdGetM: "H:FwdGetM",
	HWBAck: "H:WBAck", HNack: "H:Nack", HMemData: "H:MemData",
	HData: "H:Data", HAck: "H:Ack",

	MGetS: "M:GetS", MGetM: "M:GetM", MGetInstr: "M:GetInstr", MPutM: "M:PutM", MPutS: "M:PutS",
	MDataE: "M:DataE", MDataS: "M:DataS", MDataAcks: "M:DataAcks",
	MInv: "M:Inv", MInvToL2: "M:InvToL2", MFwdGetS: "M:FwdGetS", MFwdGetM: "M:FwdGetM",
	MWBAck: "M:WBAck", MInvAck: "M:InvAck", MInvAckToL2: "M:InvAckToL2",
	MDataOwner: "M:DataOwner", MCopyToL2: "M:CopyToL2", MUnblock: "M:Unblock",

	XGetS: "X:GetS", XGetM: "X:GetM", XPutM: "X:PutM", XPutS: "X:PutS",
	XDataS: "X:DataS", XDataE: "X:DataE", XDataM: "X:DataM", XInv: "X:Inv",
	XWBAck: "X:WBAck", XInvAck: "X:InvAck", XInvWB: "X:InvWB",

	ReqLoad: "Req:Load", ReqStore: "Req:Store", RespLoad: "Resp:Load", RespStore: "Resp:Store",
}

// String renders the protocol-prefixed wire name (e.g. "A:GetS").
func (t MsgType) String() string {
	if t >= 0 && int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// CarriesData reports whether messages of this type carry a data block in
// a correct protocol; used for byte accounting and guard checks.
func (t MsgType) CarriesData() bool {
	switch t {
	case APutM, APutE, ADataS, ADataE, ADataM, ACleanWB, ADirtyWB,
		HWBData, HMemData, HData,
		MPutM, MDataE, MDataS, MDataAcks, MDataOwner, MCopyToL2,
		XPutM, XDataS, XDataE, XDataM, XInvWB,
		RespLoad:
		return true
	}
	return false
}

// IsAccelRequest reports whether t is one of the five accelerator->XG
// requests of the Crossing Guard interface.
func (t MsgType) IsAccelRequest() bool {
	switch t {
	case AGetS, AGetM, APutM, APutE, APutS:
		return true
	}
	return false
}

// IsAccelResponse reports whether t is one of the three accelerator->XG
// responses of the Crossing Guard interface.
func (t MsgType) IsAccelResponse() bool {
	switch t {
	case AInvAck, ACleanWB, ADirtyWB:
		return true
	}
	return false
}

// ControlBytes and DataBytes size the performance/traffic model: every
// message has an 8-byte header; data-bearing messages add one block.
const (
	ControlBytes = 8
	DataBytes    = mem.BlockBytes
)

// Msg is a coherence message. A single struct serves every protocol;
// unused fields are zero.
//
// # Lifetime
//
// Protocol agents take their messages from the machine's Pool
// (network.Fabric embeds it: fab.Msg(coherence.Msg{…})); a pooled message
// owns 64 bytes of block storage, and a block named in the template is
// copied into it, so a sender keeps no claim on what it sent and may go
// on mutating its own line. The rule, for every message:
//
// A delivered message and its block are the receiver's until Recv returns;
// after that the fabric takes a pooled message back unless the receiver
// said it is keeping it (Keep), and whoever keeps it gives it back when
// done (Release, or BeginRecv/EndRecv around a replay).
//
// So a receiver that needs the data after Recv copies it out into storage
// it owns (Pool.CopyBlock for line storage), and a receiver that queues
// the message itself, hangs it on an open transaction or schedules a
// handler for it (Fabric.CallAfter keeps it for the caller) calls Keep.
// A forgotten give-back costs one allocation for the rest of the run — the
// pool's Reset takes the object back; a missing Keep is the bug, and the
// lifetime check
// (Pool.CheckLifetimes, on in -race builds) is there to trip on it.
//
// A message waits on at most one list at a time, and the list runs through
// the message itself: a kept message queued behind its line (LineQueues)
// or a released one on the pool's free list costs no storage of its own,
// so queueing and recycling allocate nothing. Queueing a message that
// already waits on a line panics (LineQueues.Push): the link it would
// overwrite is what holds the messages behind it.
//
// That goes for hostile senders too: the fuzzing attacker and the
// adversarial accelerators forge content, not storage, and take the
// messages they send from the same pool. What a fault interceptor had
// delivered twice, or beside a corrupted copy of itself, leaves the pool
// for good (Pool.Disown).
//
// Messages the pool did not hand out are never recycled and the calls
// above ignore them: a literal built with &coherence.Msg{…} (tests and
// their scripted injections), a by-value copy of a pooled message, and a
// sequencer's request (ReqLoad/ReqStore), which is embedded in its Op and
// belongs to the cache it was delivered to until that cache completes it
// with Reply.
type Msg struct {
	Type   MsgType
	Dirty  bool      // data is modified relative to memory
	Shared bool      // responder also holds/held the block shared
	Val    byte      // byte operand/result for sequencer-level ops
	life   lifeState // pool bookkeeping; zero on a message the pool did not hand out

	Addr      mem.Addr
	Src, Dst  NodeID
	Requestor NodeID     // original requestor, for forwarded requests
	Data      *mem.Block // nil when absent; a pooled message's points at its own storage
	Tag       uint64     // sequencer-level operation id, echoed in responses
	// Span is the causal span id of the guard transaction this message
	// belongs to (core.Config.Spans). 0 — span tracing disabled, or a
	// message outside any guard transaction — is omitted from rendering,
	// so span-free traces are byte-identical to the pre-span format.
	Span uint64
	// Epoch is the guard epoch the message was issued under. 0 — the
	// epoch of a guard that has never been reset — is omitted from
	// rendering, so pre-recovery traces are byte-identical. A guard that
	// has reintegrated its device stamps its bumped epoch on every
	// outbound accelerator message and rejects accelerator messages
	// carrying an older epoch as XG.StaleEpoch.
	Epoch uint32
	Acks  int32 // invalidation acks the requestor must await
	// home is the pooled object this message lives in (nil otherwise); a
	// by-value copy of a pooled message points at its original's home, not
	// its own, which is how the pool tells the two apart.
	home *pooledMsg
	// next links the message into the one list it waits on — a line's
	// queue in LineQueues, where the last message's next is a sentinel, or
	// the pool's free list — and is nil otherwise.
	next *Msg
}

// Reply completes the sequencer-level request op in place and returns it
// for sending: ReqLoad becomes RespLoad and ReqStore RespStore, from is the
// new Src and the requester the new Dst, Val carries val, Addr and Tag are
// kept. No message is made: the request object itself travels back, so the
// caller must be done with op — it stops being the cache's here.
func Reply(op *Msg, from NodeID, val byte) *Msg {
	ty := RespLoad
	if op.Type == ReqStore {
		ty = RespStore
	}
	op.Type, op.Src, op.Dst, op.Val = ty, from, op.Src, val
	return op
}

// Bytes returns the modeled wire size of the message.
func (m *Msg) Bytes() int {
	if m.Data != nil {
		return ControlBytes + DataBytes
	}
	return ControlBytes
}

// String renders the message one-line: type, address, src->dst, and any
// non-zero auxiliary fields (requestor, data/dirty, acks, shared).
func (m *Msg) String() string {
	s := fmt.Sprintf("%v %v %d->%d", m.Type, m.Addr, m.Src, m.Dst)
	if m.Requestor != 0 && m.Requestor != NodeNone {
		s += fmt.Sprintf(" req=%d", m.Requestor)
	}
	if m.Data != nil {
		s += " +data"
		if m.Dirty {
			s += "(dirty)"
		}
	}
	if m.Acks != 0 {
		s += fmt.Sprintf(" acks=%d", m.Acks)
	}
	if m.Shared {
		s += " shared"
	}
	if m.Epoch != 0 {
		s += fmt.Sprintf(" epoch=%d", m.Epoch)
	}
	if m.Span != 0 {
		s += fmt.Sprintf(" span=%x", m.Span)
	}
	return s
}

// Controller is a protocol agent: something that receives messages.
type Controller interface {
	ID() NodeID
	Name() string
	Recv(m *Msg)
}
