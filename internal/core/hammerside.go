package core

import (
	"crossingguard/internal/coherence"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// Crossing Guard as an ordinary private cache of the Hammer-like host
// (paper §3.2.1): it issues GetS/GetSOnly/GetM and counts the broadcast's
// responses, answers every forward, and runs two-part writebacks, whose
// data follows the directory's WBAck. The accelerator interface has no O
// state, so an owner hit by Fwd_GetS is recalled, the data forwarded to
// the requestor and ownership given back with a Put (the paper's
// merged-GetS handling).
var hammerHost = &hostProto{
	gets: [...]coherence.MsgType{GetShared: coherence.HGetS, GetSharedOnly: coherence.HGetSOnly, GetExcl: coherence.HGetM},
	put:  coherence.HPut, putS: none, // Hammer evicts S silently
	rules: hammerRules,
}

// NewHammerGuard builds a Crossing Guard instance attached to a Hammer
// host. responses must equal the directory's peer count (each peer plus
// the speculative memory response). The caller must register the guard as
// a directory peer.
func NewHammerGuard(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	accel, dir coherence.NodeID, responses int, cfg Config, sink coherence.ErrorSink) *Guard {
	return newGuard(id, name, eng, fab, accel, hammerHost, dir, responses, cfg, sink)
}

var hammerVocab = coherence.NewTable(hostNames, nil,
	coherence.HFwdGetS, coherence.HFwdGetSOnly, coherence.HFwdGetM,
	coherence.HData, coherence.HAck, coherence.HMemData, coherence.HWBAck, coherence.HNack)

func hammerRow(k hostKey, r hostRule, msgs ...coherence.MsgType) coherence.Row[hostKey, hostRule] {
	return cells(hammerVocab, k, r, msgs...)
}

var (
	hFwdGetS = []coherence.MsgType{coherence.HFwdGetS, coherence.HFwdGetSOnly}
	hFwds    = []coherence.MsgType{coherence.HFwdGetS, coherence.HFwdGetSOnly, coherence.HFwdGetM}
	hData    = hostRule{act: doAnswer, send: coherence.HData}
	hAck     = hostRule{act: doAnswer, ack: coherence.HAck}
	// The accelerator's answer, or an Ack when it held nothing: a sharer's,
	// or one only an Unknown view resolves to (hostAnswer).
	hRecall = hostRule{act: doRecall, send: coherence.HData, ack: coherence.HAck}
	// An owner's data answers a Fwd_GetS, and ownership goes home.
	hRecallOwner = hostRule{act: doRecall, send: coherence.HData, ack: coherence.HAck, yields: true}
	hRetire      = hostRule{act: doRetire, send: coherence.HWBData}
)

// hammerRules is the guard's table for the Hammer host.
var hammerRules = coherence.NewRules("xg.hammer", hammerVocab, []coherence.Row[hostKey, hostRule]{
	// A writeback in flight answers forwards from its data (MI-style); a
	// Fwd_GetM takes ownership with it, and later forwards are acked (II).
	hammerRow(keyPut, hData, hFwdGetS...),
	hammerRow(keyPut, hostRule{act: doAnswer, send: coherence.HData, yields: true}, coherence.HFwdGetM),
	hammerRow(keyPut, hRetire, coherence.HWBAck),
	// The directory rejected a Put the guard could not validate
	// (Transactional mode forwarding a stray accelerator Put).
	hammerRow(keyPut, hostRule{act: doRetire, send: none, code: "XG.G1a",
		detail: "host rejected writeback (non-owner Put)"}, coherence.HNack),
	hammerRow(keyLost, hAck, hFwds...),
	hammerRow(keyLost, hRetire, coherence.HWBAck),
	hammerRow(keyLost, hostRule{act: doRetire, send: none}, coherence.HNack),
	hammerRow(hNone, hAck, hFwds...),
	// A shared copy does not conflict with Fwd_GetS.
	hammerRow(hS, hostRule{act: doAnswer, ack: coherence.HAck, shared: true}, hFwdGetS...),
	hammerRow(hS, hRecall, coherence.HFwdGetM),
	// A read-only block the guard owns (Guarantee 0b): the trusted copy
	// answers, once the accelerator's S copy has died on a Fwd_GetM.
	hammerRow(hSCopy, hData, hFwdGetS...),
	hammerRow(hSCopy, hostRule{act: doServe, send: coherence.HData}, coherence.HFwdGetM),
	hammerRow(hE, hRecallOwner, hFwdGetS...),
	hammerRow(hE, hRecall, coherence.HFwdGetM),
	hammerRow(hM, hRecallOwner, hFwdGetS...),
	hammerRow(hM, hRecall, coherence.HFwdGetM),
	hammerRow(hUnknown, hRecallOwner, hFwdGetS...),
	hammerRow(hUnknown, hRecall, coherence.HFwdGetM),
	hammerRow(keyGet, hostRule{act: doCollect, send: coherence.HUnblock, shared: true},
		coherence.HData, coherence.HAck, coherence.HMemData),
})
