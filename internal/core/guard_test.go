package core

import (
	"fmt"
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/perm"
	"crossingguard/internal/sim"
)

// stubHost stands in for the host: the fabric hands it, as the guard sends
// them, the gets, puts and PutSs addressed home, and the answers of the
// recalls started through coreRig.recall — the guard core in isolation.
// It keeps no host get open, so a test grants by hand (granted).
type stubHost struct {
	g    *Guard
	gets []struct {
		addr mem.Addr
		kind GetKind
	}
	puts  []mem.Addr
	putSs []mem.Addr
	// dones are the completion callbacks of the recalls started through
	// coreRig.recall; the i-th one's answer goes to node probe+i.
	dones []func(data *mem.Block, dirty, viaPut bool)
}

// The stub's home node, and the first of its recall requestors.
const stubHome, probe coherence.NodeID = 300, 1000

// probeCell is the continuation of coreRig.recall: it answers the probe
// with the data the recall resolved with, or acks without.
var probeCell = hostRule{act: doRecall, send: coherence.MDataOwner, ack: coherence.MInvAck}

func (s *stubHost) Intercept(_ sim.Time, m *coherence.Msg) ([]network.Delivery, bool) {
	switch {
	case m.Dst >= probe:
		// A racing Put that resolved the recall leaves its InvAck owed.
		var data *mem.Block
		if m.Data != nil {
			b := *m.Data
			data = &b
		}
		l := s.g.lines[m.Addr]
		s.dones[m.Dst-probe](data, m.Dirty, l != nil && l.ignoreInvAck > 0)
	case m.Dst != stubHome:
		return nil, false
	case m.Type == coherence.MPutS:
		s.putSs = append(s.putSs, m.Addr)
	case m.Type == coherence.MPutM || m.Type == coherence.HPut:
		s.puts = append(s.puts, m.Addr)
	default:
		// The get stays unanswered and unrecorded: a test grants by hand.
		s.g.lines[m.Addr].work.get = hostGet{}
		kind := map[coherence.MsgType]GetKind{coherence.MGetS: GetShared, coherence.MGetInstr: GetSharedOnly,
			coherence.MGetM: GetExcl, coherence.HGetS: GetShared, coherence.HGetSOnly: GetSharedOnly, coherence.HGetM: GetExcl}[m.Type]
		s.gets = append(s.gets, struct {
			addr mem.Addr
			kind GetKind
		}{m.Addr, kind})
	}
	return nil, true
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
	host  *stubHost
	accel *accelSink
	log   *coherence.ErrorLog
}

func newCoreRig(mode Mode, perms *perm.Table) *coreRig {
	return newRecallRig(mode, Config{Perms: perms, Timeout: 1000, GuardLat: 1})
}

func (r *coreRig) fromAccel(ty coherence.MsgType, addr mem.Addr, data *mem.Block) {
	r.g.Recv(&coherence.Msg{Type: ty, Addr: addr, Src: 200, Dst: 40, Data: data,
		Dirty: ty == coherence.APutM || ty == coherence.ADirtyWB})
	r.eng.RunUntilQuiet()
}

// recall starts a recall the way a host cell does and has done called with
// its resolution, and whether a racing Put resolved it.
func (r *coreRig) recall(addr mem.Addr, expect viewState, done func(data *mem.Block, dirty, viaPut bool)) {
	req := probe + coherence.NodeID(len(r.host.dones))
	r.host.dones = append(r.host.dones, done)
	r.fab.Register(&hostSink{id: req})
	r.g.startRecall(addr, expect, recallCont{do: &probeCell, req: req})
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
	if len(r.host.gets) != 3 {
		t.Fatalf("gets = %d", len(r.host.gets))
	}
	if r.host.gets[0].kind != GetShared || r.host.gets[1].kind != GetExcl {
		t.Fatalf("kinds: %+v", r.host.gets)
	}
	if r.host.gets[2].kind != GetSharedOnly {
		t.Fatalf("Transactional RO GetS kind = %v, want GetSharedOnly", r.host.gets[2].kind)
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
	r.g.host = hammerHost // evicts S silently
	// Legitimate S grant first so the table allows the PutS.
	r.fromAccel(coherence.AGetS, 0x40, nil)
	r.g.granted(0x40, GrantS, mem.Zero(), false)
	r.eng.RunUntilQuiet()
	r.fromAccel(coherence.APutS, 0x40, nil)
	if len(r.host.putSs) != 0 {
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
	if len(r2.host.putSs) != 1 || r2.g.PutSForwarded != 1 {
		t.Fatal("PutS not forwarded")
	}
}

// TestRecallRaceCorrections: what the host side gets when a recall closes,
// on every path that closes one — the accelerator's response, a racing Put,
// the 2c timeout, the quarantine fence closing an open recall, and a recall
// opened while fenced — from every view of the accelerator's copy, for each
// thing the accelerator can supply: nothing, a block, or a data-carrying
// message without its block. A row expects the block's source (none, the
// accelerator's, zeros, the trusted copy), its dirty bit and the Guarantee 2
// codes reported. The named cases after the grid check one race each in full.
func TestRecallRaceCorrections(t *testing.T) {
	const (
		A          = mem.Addr(0x40)
		answerByte = 0xDA // the accelerator's block
		copyByte   = 0xC0 // the guard's trusted copy
	)
	type view struct {
		name  string
		mode  Mode
		state viewState
		grant func(tb tableView) // the Full State residency, nil for none
	}
	resident := func(accel, host Grant, keepCopy bool) func(tableView) {
		return func(tb tableView) { tb.grant(accel, host, keepCopy, &mem.Block{copyByte}, true) }
	}
	views := []view{
		{"S", FullState, viewS, resident(GrantS, GrantS, false)},
		{"S+copy", FullState, viewS, resident(GrantS, GrantM, true)},
		{"E", FullState, viewE, resident(GrantE, GrantE, false)},
		{"M", FullState, viewM, resident(GrantM, GrantM, false)},
		{"Unknown", Transactional, viewUnknown, nil},
		// An owned line with a trusted copy exists only when its grant raced
		// the fence, so only a recall opened while fenced can meet one.
		{"M+copy", FullState, viewM, resident(GrantM, GrantM, true)},
	}
	// What the accelerator supplies on the two paths it answers on.
	respond := [3]*coherence.Msg{
		{Type: coherence.AInvAck},
		{Type: coherence.ACleanWB, Data: &mem.Block{answerByte}},
		{Type: coherence.ACleanWB},
	}
	race := [3]*coherence.Msg{
		{Type: coherence.APutS},
		{Type: coherence.APutE, Data: &mem.Block{answerByte}},
		{Type: coherence.APutM},
	}
	supplied := [3]string{"nothing", "block", "no block"}
	// want, by path and view, by what was supplied (timeout and the fence:
	// nothing, the accelerator is silent or never asked).
	want := map[string]map[string][]string{
		"response": {
			"S":       {"none clean", "none clean XG.G2a", "none clean XG.G2a"},
			"S+copy":  {"none clean", "none clean XG.G2a", "none clean XG.G2a"},
			"E":       {"zero dirty XG.G2a", "accel clean", "zero clean XG.G2a"},
			"M":       {"zero dirty XG.G2a", "accel dirty", "zero dirty XG.G2a"},
			"Unknown": {"none clean", "accel clean", "zero clean XG.G2a"},
		},
		"put-race": {
			"S":       {"none clean", "none clean XG.G2a", "none clean"},
			"S+copy":  {"none clean", "none clean XG.G2a", "none clean"},
			"E":       {"zero dirty XG.G2a", "accel clean", "zero dirty XG.G2a"},
			"M":       {"zero dirty XG.G2a", "accel clean", "zero dirty XG.G2a"},
			"Unknown": {"none clean", "accel clean", "none clean"},
		},
		"timeout": {
			"S": {"none clean XG.G2c"}, "S+copy": {"none clean XG.G2c"},
			"E": {"zero dirty XG.G2c"}, "M": {"zero dirty XG.G2c"}, "Unknown": {"none clean XG.G2c"},
		},
		"quarantine": {
			"S": {"none clean"}, "S+copy": {"none clean"},
			"E": {"zero dirty"}, "M": {"zero dirty"}, "Unknown": {"none clean"},
		},
		"quarantined": {
			"S": {"none clean"}, "S+copy": {"none clean"},
			"E": {"zero dirty"}, "M": {"zero dirty"}, "Unknown": {"none clean"},
			"M+copy": {"copy dirty"},
		},
	}
	for _, path := range []string{"response", "put-race", "timeout", "quarantine", "quarantined"} {
		for _, v := range views {
			for i, w := range want[path][v.name] {
				t.Run(path+"/"+v.name+"/"+supplied[i], func(t *testing.T) {
					r := newRecallRig(v.mode, Config{Timeout: 1000, GuardLat: 1, QuarantineAfter: 1})
					if v.grant != nil {
						v.grant(tableView{r.g, A})
					}
					fence := func() { // any violation trips it
						r.g.Recv(&coherence.Msg{Type: coherence.HGetS, Addr: 0x2000, Src: 200, Dst: 40})
						if !r.g.Quarantined {
							t.Fatal("guard not quarantined")
						}
					}
					if path == "quarantined" {
						fence()
					}
					calls, reported := 0, len(r.log.Errors)
					var got string
					var viaPut bool
					r.recall(A, v.state, func(d *mem.Block, dirty, vp bool) {
						calls++
						viaPut = vp
						switch {
						case d == nil:
							got = "none"
						case d[0] == answerByte:
							got = "accel"
						case d[0] == copyByte:
							got = "copy"
						case *d == mem.Block{}:
							got = "zero"
						default:
							got = fmt.Sprintf("block %x", d[0])
						}
						got += map[bool]string{false: " clean", true: " dirty"}[dirty]
					})
					r.eng.RunUntil(5) // the Invalidate is out
					switch path {
					case "response":
						m := *respond[i]
						m.Addr, m.Src, m.Dst = A, 200, 40
						r.g.Recv(&m)
					case "put-race":
						m := *race[i]
						m.Addr, m.Src, m.Dst = A, 200, 40
						r.g.Recv(&m)
					case "timeout":
						r.eng.RunUntilQuiet()
					case "quarantine":
						fence()
					}
					for _, e := range r.log.Errors[reported:] {
						if strings.HasPrefix(e.Code, "XG.G2") {
							got += " " + e.Code
						}
					}
					if calls != 1 || got != w || viaPut != (path == "put-race") {
						t.Fatalf("%d completions, got %q via Put %t; want one, %q via Put %t", calls, got, viaPut, w, path == "put-race")
					}
				})
			}
		}
	}

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

// A mute accelerator holding a read-only block the guard owns: the host's
// Fwd_GetM recalls the accelerator's S copy, the 2c timeout closes the recall,
// and the requestor is served the guard's trusted copy — not zeros.
func TestRecallTimeoutUsesTrustedCopy(t *testing.T) {
	const (
		line       = mem.Addr(0x1040)
		dir, req   = coherence.NodeID(10), coherence.NodeID(11)
		accel      = coherence.NodeID(200)
		copyByte   = 42
		timeoutLat = 1000
	)
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
	fab.CheckLifetimes()
	fab.Register(&accelSink{id: accel, eng: eng}) // never answers
	var log []sent
	for _, id := range []coherence.NodeID{dir, req} {
		fab.Register(&recorder{id, &log})
	}
	perms := perm.NewTable()
	perms.GrantRange(0x1000, mem.PageBytes, perm.ReadOnly)
	errs := coherence.NewErrorLog()
	g := NewHammerGuard(40, "xg", eng, fab, accel, dir, 1,
		Config{Mode: FullState, Perms: perms, Timeout: timeoutLat, GuardLat: 1}, errs)

	// The accelerator reads the line; memory answers alone, so the host
	// grants E, which the guard degrades to S and keeps a copy of.
	g.Recv(&coherence.Msg{Type: coherence.AGetS, Addr: line, Src: accel, Dst: 40})
	eng.RunUntilQuiet()
	g.Recv(&coherence.Msg{Type: coherence.HMemData, Addr: line, Src: dir, Dst: 40, Data: &mem.Block{copyByte}})
	eng.RunUntilQuiet()
	if tableCopies(g) != 1 {
		t.Fatalf("trusted copies = %d after the degraded grant, want 1", tableCopies(g))
	}
	log = nil

	g.Recv(&coherence.Msg{Type: coherence.HFwdGetM, Addr: line, Src: dir, Dst: 40, Requestor: req})
	eng.RunUntilQuiet()
	if g.Timeouts != 1 || errs.ByCode["XG.G2c"] != 1 {
		t.Fatalf("Timeouts = %d, G2c reports = %d; want 1, 1", g.Timeouts, errs.ByCode["XG.G2c"])
	}
	got := to(log, req)
	if len(got) != 1 || got[0].Type != coherence.HData {
		t.Fatalf("requestor received %v, want one HData", got)
	}
	if got[0].Data != copyByte {
		t.Fatalf("requestor's data starts %#x, want the trusted copy's %#x", got[0].Data, copyByte)
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
// XG.BadSource and never reach the host.
func TestForgedAccelIDRejected(t *testing.T) {
	r := newCoreRig(FullState, nil)
	const forger coherence.NodeID = 1200 // device 1's accelerator node
	r.g.Recv(&coherence.Msg{Type: coherence.AGetM, Addr: 0x40, Src: forger, Dst: 40})
	r.eng.RunUntilQuiet()
	if len(r.host.gets) != 0 {
		t.Fatalf("forged GetM reached the host (%d gets)", len(r.host.gets))
	}
	if r.g.errors != 1 {
		t.Fatalf("violations = %d, want 1 (XG.BadSource)", r.g.errors)
	}
	errs := r.log.Errors
	if len(errs) != 1 || errs[0].Code != "XG.BadSource" {
		t.Fatalf("reported %v, want one XG.BadSource", errs)
	}
	// Forged responses are rejected the same way.
	r.g.Recv(&coherence.Msg{Type: coherence.AInvAck, Addr: 0x40, Src: forger, Dst: 40})
	r.eng.RunUntilQuiet()
	if r.g.errors != 2 {
		t.Fatalf("violations = %d after forged InvAck, want 2", r.g.errors)
	}
}
