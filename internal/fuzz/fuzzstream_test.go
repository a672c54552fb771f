package fuzz

import (
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/mem"
	"crossingguard/internal/sim"
	"crossingguard/internal/tester"
)

// injector is a deaf accelerator endpoint: it occupies the accelerator
// node so the fabric can deliver guard responses, but never reacts. All
// stimulus comes from the decoded byte stream; silence on Invalidate is
// the Guarantee 2c (timeout) path.
type injector struct{ id coherence.NodeID }

func (i *injector) ID() coherence.NodeID { return i.id }
func (i *injector) Name() string         { return "injector" }
func (i *injector) Recv(*coherence.Msg)  {}

// streamTypes is the message vocabulary the fuzzer draws from: the full
// accelerator interface (valid or not for the current state), raw
// host-protocol types the boundary must reject, accelerator-internal
// types, sequencer types, and a completely out-of-range value.
var streamTypes = []coherence.MsgType{
	// The accelerator interface itself (8 accel->XG types).
	coherence.AGetS, coherence.AGetM, coherence.APutM, coherence.APutE, coherence.APutS,
	coherence.AInvAck, coherence.ACleanWB, coherence.ADirtyWB,
	// XG->accel types bounced back at the guard.
	coherence.ADataS, coherence.ADataM, coherence.AWBAck, coherence.AInv,
	// Raw host-protocol types (both hosts) the interface must reject.
	coherence.HGetS, coherence.HGetM, coherence.HData, coherence.HNack,
	coherence.HWBData, coherence.HUnblock, coherence.HFwdGetM,
	coherence.MGetM, coherence.MInvAck, coherence.MCopyToL2, coherence.MUnblock,
	coherence.MDataE, coherence.MFwdGetS,
	// Accelerator-internal and sequencer-level types.
	coherence.XGetS, coherence.XInvWB, coherence.ReqStore, coherence.RespLoad,
	// Garbage outside the enum.
	coherence.MsgType(200), coherence.MsgInvalid,
}

// knownCodes enumerates every classified error a guarded system may
// report: the guard's Figure 1 guarantee clauses plus the §3.2 host
// tolerance modifications. A rejection outside this set means the guard
// produced an unclassified error — a finding.
var knownCodes = map[string]bool{
	"XG.BadSource": true, "XG.BadMessage": true,
	"XG.G0a": true, "XG.G0b": true,
	"XG.G1a": true, "XG.G1b": true,
	"XG.G2a": true, "XG.G2b": true, "XG.G2c": true,
	"XG.HostAnomaly": true, "XG.HostNack": true,
	"HOST.AckAsData": true, "HOST.MultiData": true, "HOST.NoData": true,
	"HOST.UnexpectedNack": true, "HOST.WBAsAck": true,
}

// FuzzGuardMessageStream decodes raw bytes into a message stream aimed
// at the guard's accelerator port while the CPUs run the random
// workload, asserting the paper's §4.2 claim as an executable property:
// no panic, no deadlock, the host audit stays clean, every rejected
// message maps to a classified guarantee error, and every controller —
// guard and host alike — handles every message by a declared cell.
//
// Byte layout: byte 0 selects (host protocol, guard organization,
// confined); each following 4-byte chunk is one injected message:
// (type, address, flags, gap).
func FuzzGuardMessageStream(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2})
	f.Add([]byte{0x02, 5, 3, 1, 2, 12, 9, 0, 3, 30, 2, 7, 21, 8, 4, 15})
	f.Add([]byte{0x0f, 28, 0, 3, 9, 29, 1, 2, 31, 4, 7, 7, 13, 130, 255, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel := data[0]
		host := config.HostHammer
		if sel&1 != 0 {
			host = config.HostMESI
		}
		orgs := []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L, config.OrgXGFull2L, config.OrgXGTxn2L}
		org := orgs[(sel>>1)&3]
		stream := data[1:]
		if len(stream) > 4*400 {
			stream = stream[:4*400] // bound the sim cost per input
		}

		pool := make([]mem.Addr, 8)
		for i := range pool {
			pool[i] = mem.Addr(0x10000 + i*mem.BlockBytes)
		}

		var accelID, xgID coherence.NodeID
		sys := config.Build(config.Spec{
			Host: host, Org: org, CPUs: 2, AccelCores: 1,
			Seed: int64(sel)*131 + 7, Small: true, Timeout: 2000,
			CustomAccel: func(s *config.System, slot *config.CustomSlot) {
				accelID, xgID = slot.AccelID, slot.XGID
				inj := config.SlotDevice[injector](slot)
				inj.id = slot.AccelID
				s.Fab.Register(inj)
			}})

		// Schedule the decoded stream. Messages default to the real
		// accelerator source; flag bit 2 forges a non-accelerator source
		// on interface types (the XG.BadSource boundary check). Raw
		// host-protocol types always use the accelerator source: the
		// guard must reject them at the port (XG.BadMessage) — host
		// components themselves are trusted and out of scope here.
		at := sim.Time(1)
		for i := 0; i+3 < len(stream); i += 4 {
			ty := streamTypes[int(stream[i])%len(streamTypes)]
			addr := pool[int(stream[i+1])%len(pool)]
			if stream[i+1]&0x80 != 0 {
				addr += mem.Addr(stream[i+1] & 0x3f) // unaligned probe
			}
			flags := stream[i+2]
			var payload *mem.Block
			if flags&1 != 0 {
				var b mem.Block
				b[0] = stream[i+3]
				payload = &b
			}
			src := accelID
			if flags&4 != 0 && (ty.IsAccelRequest() || ty.IsAccelResponse()) {
				src = accelID + 7 // unregistered forger
			}
			m := &coherence.Msg{Type: ty, Addr: addr, Src: src, Dst: xgID,
				Data: payload, Dirty: flags&2 != 0}
			at += sim.Time(stream[i+3]%32) + 1
			sys.Eng.ScheduleAt(at, func() { sys.Fab.Send(m) })
		}

		cfg := tester.DefaultConfig(int64(sel) * 17)
		cfg.Lines = 4
		cfg.StoresPerLoc = 4
		cfg.Deadline = 5_000_000
		cfg.SkipValueChecks = true // the injector implicitly shares pages
		res, err := tester.Run(hostView{sys}, cfg)
		if err != nil {
			t.Fatalf("host crashed or deadlocked under stream: %v (after %d CPU ops)", err, res.Loads+res.Stores)
		}
		for code, n := range sys.Log.ByCode {
			if !knownCodes[code] {
				t.Fatalf("unclassified rejection %q (%d reports; first kept: %v)", code, n, sys.Log.Errors)
			}
		}
		// Every message the guard, the host and the accelerator side took
		// is a cell of its class's declared table.
		sys.Coverages(func(cov *coherence.Coverage) {
			if u := cov.Unexpected; len(u) > 0 {
				t.Fatalf("%s visited undeclared transitions %v", cov.Name(), u)
			}
		})
	})
}
