package core

import (
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/perm"
	"crossingguard/internal/sim"
)

// stubShim records what the guard core asks of the host side and lets
// tests drive grants/acks by hand — the guard core in isolation.
type stubShim struct {
	g    *Guard
	gets []struct {
		addr mem.Addr
		kind GetKind
	}
	puts     []mem.Addr
	putSs    []mem.Addr
	suppress bool
	received []*coherence.Msg
	// dones are the completion callbacks of the recalls started through
	// coreRig.recall, which numbers them in the continuation's req.
	dones []func(data *mem.Block, dirty, viaPut bool)
}

func (s *stubShim) get(addr mem.Addr, kind GetKind) {
	s.gets = append(s.gets, struct {
		addr mem.Addr
		kind GetKind
	}{addr, kind})
}
func (s *stubShim) put(addr mem.Addr, data *mem.Block, dirty bool) { s.puts = append(s.puts, addr) }
func (s *stubShim) putS(addr mem.Addr)                             { s.putSs = append(s.putSs, addr) }
func (s *stubShim) suppressPutS() bool                             { return s.suppress }
func (s *stubShim) recv(m *coherence.Msg)                          { m.Keep(); s.received = append(s.received, m) }
func (s *stubShim) resume(_ mem.Addr, c recallCont, data *mem.Block, dirty, viaPut bool) {
	s.dones[c.req](data, dirty, viaPut)
}

// accelSink collects what the guard sends to the accelerator, and the tick
// each message arrived.
type accelSink struct {
	id  coherence.NodeID
	eng *sim.Engine
	got []*coherence.Msg
	at  []sim.Time
}

func (a *accelSink) ID() coherence.NodeID { return a.id }
func (a *accelSink) Name() string         { return "accelSink" }
func (a *accelSink) Recv(m *coherence.Msg) {
	m.Keep()
	a.got, a.at = append(a.got, m), append(a.at, a.eng.Now())
}

type coreRig struct {
	eng   *sim.Engine
	fab   *network.Fabric
	g     *Guard
	shim  *stubShim
	accel *accelSink
	log   *coherence.ErrorLog
}

func newCoreRig(mode Mode, perms *perm.Table) *coreRig {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
	log := coherence.NewErrorLog()
	accel := &accelSink{id: 200, eng: eng}
	fab.Register(accel)
	g := newGuard(40, "xg", eng, fab, 200, Config{Mode: mode, Perms: perms,
		Timeout: 1000, GuardLat: 1}, log)
	shim := &stubShim{g: g}
	g.shim = shim
	return &coreRig{eng, fab, g, shim, accel, log}
}

func (r *coreRig) fromAccel(ty coherence.MsgType, addr mem.Addr, data *mem.Block) {
	r.g.Recv(&coherence.Msg{Type: ty, Addr: addr, Src: 200, Dst: 40, Data: data,
		Dirty: ty == coherence.APutM || ty == coherence.ADirtyWB})
	r.eng.RunUntilQuiet()
}

// recall starts a recall the way a shim does and has done called with its
// resolution.
func (r *coreRig) recall(addr mem.Addr, expect viewState, done func(data *mem.Block, dirty, viaPut bool)) {
	r.shim.dones = append(r.shim.dones, done)
	r.g.startRecall(addr, expect, recallCont{req: coherence.NodeID(len(r.shim.dones) - 1)})
}

func (r *coreRig) lastToAccel() *coherence.Msg {
	if len(r.accel.got) == 0 {
		return nil
	}
	return r.accel.got[len(r.accel.got)-1]
}

func TestGuardForwardsGetsWithRightKind(t *testing.T) {
	perms := perm.NewTable()
	perms.GrantRange(0x0, mem.PageBytes, perm.ReadWrite)
	perms.GrantRange(0x1000, mem.PageBytes, perm.ReadOnly)
	r := newCoreRig(Transactional, perms)
	r.fromAccel(coherence.AGetS, 0x40, nil)
	r.fromAccel(coherence.AGetM, 0x80, nil)
	r.fromAccel(coherence.AGetS, 0x1040, nil) // read-only page
	if len(r.shim.gets) != 3 {
		t.Fatalf("gets = %d", len(r.shim.gets))
	}
	if r.shim.gets[0].kind != GetShared || r.shim.gets[1].kind != GetExcl {
		t.Fatalf("kinds: %+v", r.shim.gets)
	}
	if r.shim.gets[2].kind != GetSharedOnly {
		t.Fatalf("Transactional RO GetS kind = %v, want GetSharedOnly", r.shim.gets[2].kind)
	}
}

func TestGuardGrantDegradesForReadOnly(t *testing.T) {
	perms := perm.NewTable()
	perms.GrantRange(0x1000, mem.PageBytes, perm.ReadOnly)
	r := newCoreRig(FullState, perms)
	r.fromAccel(coherence.AGetS, 0x1040, nil)
	// Full State used a plain GetS; the host grants M anyway.
	var blk mem.Block
	blk[0] = 9
	r.g.granted(0x1040, GrantM, &blk, true)
	r.eng.RunUntilQuiet()
	if m := r.lastToAccel(); m == nil || m.Type != coherence.ADataS {
		t.Fatalf("accel received %v, want DataS (degraded grant)", m)
	}
	// And the guard kept the trusted copy.
	if tableCopies(r.g) != 1 {
		t.Fatalf("copies = %d", tableCopies(r.g))
	}
}

func TestGuardPutSSuppression(t *testing.T) {
	r := newCoreRig(FullState, nil)
	r.shim.suppress = true
	// Legitimate S grant first so the table allows the PutS.
	r.fromAccel(coherence.AGetS, 0x40, nil)
	r.g.granted(0x40, GrantS, mem.Zero(), false)
	r.eng.RunUntilQuiet()
	r.fromAccel(coherence.APutS, 0x40, nil)
	if len(r.shim.putSs) != 0 {
		t.Fatal("PutS forwarded despite suppression")
	}
	if r.g.PutSSuppressed != 1 {
		t.Fatalf("PutSSuppressed = %d", r.g.PutSSuppressed)
	}
	if m := r.lastToAccel(); m == nil || m.Type != coherence.AWBAck {
		t.Fatalf("accel received %v, want WBAck", m)
	}
	// Without suppression, it is forwarded.
	r2 := newCoreRig(FullState, nil)
	r2.fromAccel(coherence.AGetS, 0x40, nil)
	r2.g.granted(0x40, GrantS, mem.Zero(), false)
	r2.eng.RunUntilQuiet()
	r2.fromAccel(coherence.APutS, 0x40, nil)
	if len(r2.shim.putSs) != 1 || r2.g.PutSForwarded != 1 {
		t.Fatal("PutS not forwarded")
	}
}

// TestRecallRaceCorrections: the Guarantee 2a corrections on the Put/Inv
// race path, in isolation.
func TestRecallRaceCorrections(t *testing.T) {
	t.Run("owner-put-without-data-zero-filled", func(t *testing.T) {
		r := newCoreRig(FullState, nil)
		r.fromAccel(coherence.AGetM, 0x40, nil)
		r.g.granted(0x40, GrantM, mem.Zero(), false)
		r.eng.RunUntilQuiet()
		var got *mem.Block
		var viaPut bool
		r.recall(0x40, viewM, func(d *mem.Block, dirty, vp bool) { got, viaPut = d, vp })
		// The racing Put arrives... malformed, with no data.
		r.fromAccel(coherence.APutM, 0x40, nil)
		if got == nil {
			t.Fatal("recall completed without data for an owned block")
		}
		if !viaPut {
			t.Fatal("resolution not attributed to the racing put")
		}
		if r.log.ByCode["XG.G2a"] != 1 {
			t.Fatalf("G2a not reported: %v", r.log.ByCode)
		}
	})
	t.Run("sharer-put-with-data-corrected-to-ack", func(t *testing.T) {
		r := newCoreRig(FullState, nil)
		r.fromAccel(coherence.AGetS, 0x40, nil)
		r.g.granted(0x40, GrantS, mem.Zero(), false)
		r.eng.RunUntilQuiet()
		var got *mem.Block = mem.Zero()
		r.recall(0x40, viewS, func(d *mem.Block, dirty, vp bool) { got = d })
		var blk mem.Block
		blk[0] = 0xbad & 0xff
		r.fromAccel(coherence.APutM, 0x40, &blk) // S holder injecting data
		if got != nil {
			t.Fatal("non-owner data reached the host path")
		}
		if r.log.ByCode["XG.G2a"] == 0 {
			t.Fatalf("G2a not reported: %v", r.log.ByCode)
		}
	})
	t.Run("clean-race-put-passes-through", func(t *testing.T) {
		r := newCoreRig(FullState, nil)
		r.fromAccel(coherence.AGetM, 0x40, nil)
		r.g.granted(0x40, GrantM, mem.Zero(), false)
		r.eng.RunUntilQuiet()
		var got *mem.Block
		r.recall(0x40, viewM, func(d *mem.Block, dirty, vp bool) { got = d })
		var blk mem.Block
		blk[3] = 77
		r.fromAccel(coherence.APutM, 0x40, &blk)
		if got == nil || got[3] != 77 {
			t.Fatalf("legitimate race data lost: %v", got)
		}
		if r.log.Count() != 0 {
			t.Fatalf("clean race reported errors: %v", r.log.Errors)
		}
		// The accelerator's B-state InvAck must be consumed silently.
		r.fromAccel(coherence.AInvAck, 0x40, nil)
		if r.log.Count() != 0 {
			t.Fatalf("race InvAck misreported: %v", r.log.Errors)
		}
	})
}

func TestRecallTimeoutUsesTrustedCopy(t *testing.T) {
	perms := perm.NewTable()
	perms.GrantRange(0x1000, mem.PageBytes, perm.ReadOnly)
	r := newCoreRig(FullState, perms)
	r.fromAccel(coherence.AGetS, 0x1040, nil)
	var blk mem.Block
	blk[1] = 42
	r.g.granted(0x1040, GrantE, &blk, false) // degraded + copy kept
	r.eng.RunUntilQuiet()
	var got *mem.Block
	r.recall(0x1040, viewS, func(d *mem.Block, dirty, vp bool) { got = d })
	// The accelerator never answers; run past the timeout.
	r.eng.RunUntilQuiet()
	if r.g.Timeouts != 1 {
		t.Fatalf("Timeouts = %d", r.g.Timeouts)
	}
	_ = got // viewS recall wants no data; the point is liveness + the error
	if r.log.ByCode["XG.G2c"] != 1 {
		t.Fatalf("G2c not reported: %v", r.log.ByCode)
	}
}

func TestStorageBytesGrowsWithTable(t *testing.T) {
	r := newCoreRig(FullState, nil)
	base := r.g.StorageBytes()
	for i := 0; i < 10; i++ {
		a := mem.Addr(i * 64)
		r.fromAccel(coherence.AGetS, a, nil)
		r.g.granted(a, GrantS, mem.Zero(), false)
		r.eng.RunUntilQuiet()
	}
	if r.g.StorageBytes() <= base {
		t.Fatal("Full State storage did not grow with resident blocks")
	}
	rt := newCoreRig(Transactional, nil)
	for i := 0; i < 10; i++ {
		a := mem.Addr(i * 64)
		rt.fromAccel(coherence.AGetS, a, nil)
		rt.g.granted(a, GrantS, mem.Zero(), false)
		rt.eng.RunUntilQuiet()
	}
	if rt.g.StorageBytes() != 0 {
		t.Fatalf("Transactional storage = %d after all transactions closed, want 0",
			rt.g.StorageBytes())
	}
}

// Interface messages from a node that is not this guard's accelerator —
// another device forging its neighbor's requests — are rejected with
// XG.BadSource and never reach the host shim.
func TestForgedAccelIDRejected(t *testing.T) {
	r := newCoreRig(FullState, nil)
	const forger coherence.NodeID = 1200 // device 1's accelerator node
	r.g.Recv(&coherence.Msg{Type: coherence.AGetM, Addr: 0x40, Src: forger, Dst: 40})
	r.eng.RunUntilQuiet()
	if len(r.shim.gets) != 0 {
		t.Fatalf("forged GetM reached the host shim (%d gets)", len(r.shim.gets))
	}
	if r.g.Errors() != 1 {
		t.Fatalf("violations = %d, want 1 (XG.BadSource)", r.g.Errors())
	}
	errs := r.log.Errors
	if len(errs) != 1 || errs[0].Code != "XG.BadSource" {
		t.Fatalf("reported %v, want one XG.BadSource", errs)
	}
	// Forged responses are rejected the same way.
	r.g.Recv(&coherence.Msg{Type: coherence.AInvAck, Addr: 0x40, Src: forger, Dst: 40})
	r.eng.RunUntilQuiet()
	if r.g.Errors() != 2 {
		t.Fatalf("violations = %d after forged InvAck, want 2", r.g.Errors())
	}
}
