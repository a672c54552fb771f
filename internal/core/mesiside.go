package core

import (
	"crossingguard/internal/coherence"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// Crossing Guard as an ordinary private L1 of the inclusive MESI host
// (paper §3.2.2): it issues GetS/GetInstr/GetM and counts data and
// invalidation acks; it answers Inv (an ack to the requestor), InvToL2
// (the inclusion recall, answered to the L2), Fwd_GetS (data to the
// requestor and a copy to the L2) and Fwd_GetM (a data hand-off); its
// writeback's data rides on the PutM; and it forwards PutS, because this
// host tracks exact sharers.
var mesiHost = &hostProto{
	gets: [...]coherence.MsgType{GetShared: coherence.MGetS, GetSharedOnly: coherence.MGetInstr, GetExcl: coherence.MGetM},
	put:  coherence.MPutM, putData: true, putS: coherence.MPutS,
	rules: mesiRules,
}

// NewMESIGuard builds a Crossing Guard instance attached to a MESI host.
func NewMESIGuard(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	accel, l2 coherence.NodeID, cfg Config, sink coherence.ErrorSink) *Guard {
	return newGuard(id, name, eng, fab, accel, mesiHost, l2, -1, cfg, sink)
}

var mesiVocab = coherence.NewTable(hostNames, nil,
	coherence.MDataE, coherence.MDataS, coherence.MDataAcks, coherence.MDataOwner, coherence.MInvAck,
	coherence.MWBAck, coherence.MInv, coherence.MInvToL2, coherence.MFwdGetS, coherence.MFwdGetM)

func mesiRow(k hostKey, r hostRule, msgs ...coherence.MsgType) coherence.Row[hostKey, hostRule] {
	return cells(mesiVocab, k, r, msgs...)
}

var (
	// The accelerator's writeback data goes to the L2, which on an Inv
	// acks the requestor on the accelerator's behalf (host modification,
	// §3.2.2); without data, the guard acks.
	mInv     = hostRule{act: doRecall, send: coherence.MCopyToL2, ack: coherence.MInvAck}
	mInvToL2 = hostRule{act: doRecall, send: coherence.MCopyToL2, ack: coherence.MInvAckToL2}
	// Transactional mode: an accelerator that InvAcked a forward demanding
	// data has its ack forwarded, which the modified host takes as data
	// (§3.2.2); the L2 still gets a (zero) copy so its transaction closes.
	mFwdGetS = hostRule{act: doRecall, send: coherence.MDataOwner, ack: coherence.MInvAck, l2: true}
	mFwdGetM = hostRule{act: doRecall, send: coherence.MDataOwner, ack: coherence.MInvAck}
	// The host believes the guard owns a block it knows the accelerator
	// does not hold: zeros keep the host alive.
	mNonOwner = hostRule{act: doAnswer, send: coherence.MDataOwner, code: "XG.G2a",
		detail: "host forwarded to a non-owner guard"}
	mNonOwnerS = hostRule{act: doAnswer, send: coherence.MDataOwner, l2: true, code: "XG.G2a",
		detail: "host forwarded to a non-owner guard"}
)

// mesiRules is the guard's table for the MESI host.
var mesiRules = coherence.NewRules("xg.mesi", mesiVocab, []coherence.Row[hostKey, hostRule]{
	// A writeback in flight answers from its data; an Inv means the L2
	// believes the guard a sharer: ack, and let the Put resolve it.
	mesiRow(keyPut, hostRule{act: doAnswer, ack: coherence.MInvAck}, coherence.MInv),
	mesiRow(keyPut, hostRule{act: doAnswer, send: coherence.MCopyToL2}, coherence.MInvToL2),
	mesiRow(keyPut, hostRule{act: doAnswer, send: coherence.MDataOwner, l2: true}, coherence.MFwdGetS),
	mesiRow(keyPut, hostRule{act: doAnswer, send: coherence.MDataOwner}, coherence.MFwdGetM),
	mesiRow(keyPut, hostRule{act: doRetire, send: none}, coherence.MWBAck),
	mesiRow(hNone, hostRule{act: doAnswer, ack: coherence.MInvAck}, coherence.MInv),
	mesiRow(hNone, hostRule{act: doAnswer, ack: coherence.MInvAckToL2}, coherence.MInvToL2),
	mesiRow(hNone, mNonOwnerS, coherence.MFwdGetS),
	mesiRow(hNone, mNonOwner, coherence.MFwdGetM),
	mesiRow(hS, mInv, coherence.MInv),
	mesiRow(hS, mInvToL2, coherence.MInvToL2),
	mesiRow(hS, mNonOwnerS, coherence.MFwdGetS),
	mesiRow(hS, mNonOwner, coherence.MFwdGetM),
	// A read-only block the guard owns (Guarantee 0b): the trusted copy
	// answers. On a Fwd_GetS the accelerator keeps its S copy and the guard
	// stops owning the block; otherwise the accelerator's copy dies first.
	mesiRow(hSCopy, mInv, coherence.MInv),
	mesiRow(hSCopy, hostRule{act: doServe, send: coherence.MCopyToL2, ack: coherence.MInvAckToL2}, coherence.MInvToL2),
	mesiRow(hSCopy, hostRule{act: doAnswer, send: coherence.MDataOwner, l2: true, yields: true}, coherence.MFwdGetS),
	mesiRow(hSCopy, hostRule{act: doServe, send: coherence.MDataOwner, ack: coherence.MInvAck}, coherence.MFwdGetM),
	mesiRow(hE, mInv, coherence.MInv),
	mesiRow(hE, mInvToL2, coherence.MInvToL2),
	mesiRow(hE, mFwdGetS, coherence.MFwdGetS),
	mesiRow(hE, mFwdGetM, coherence.MFwdGetM),
	mesiRow(hM, mInv, coherence.MInv),
	mesiRow(hM, mInvToL2, coherence.MInvToL2),
	mesiRow(hM, mFwdGetS, coherence.MFwdGetS),
	mesiRow(hM, mFwdGetM, coherence.MFwdGetM),
	mesiRow(hUnknown, mInv, coherence.MInv),
	mesiRow(hUnknown, mInvToL2, coherence.MInvToL2),
	mesiRow(hUnknown, mFwdGetS, coherence.MFwdGetS),
	mesiRow(hUnknown, mFwdGetM, coherence.MFwdGetM),
	mesiRow(keyGet, hostRule{act: doCollect, send: coherence.MUnblock},
		coherence.MDataE, coherence.MDataS, coherence.MDataAcks, coherence.MDataOwner, coherence.MInvAck),
})
