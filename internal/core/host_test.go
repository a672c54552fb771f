package core

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

func hammerCell(k hostKey, ty coherence.MsgType) *hostRule {
	return hammerRules.At(k, hammerVocab.Event(ty))
}

func mesiCell(k hostKey, ty coherence.MsgType) *hostRule {
	return mesiRules.At(k, mesiVocab.Event(ty))
}

// The §3.2.1 and §3.2.2 properties of the guard's host half, read off the
// rows of its two tables.
func TestGuardHostRulesMatchProtocol(t *testing.T) {
	check := func(name string, r *hostRule, want hostRule) {
		t.Helper()
		if r == nil || *r != want {
			t.Errorf("%s: cell %+v, want %+v", name, r, want)
		}
	}
	// Hammer: a Fwd_GetS to an owner, or to a Transactional guard, recalls
	// the block, serves the data and gives ownership back with a Put (the
	// interface has no O state); a Fwd_GetM serves it and keeps nothing.
	for _, v := range []hostKey{hE, hM, hUnknown} {
		for _, ty := range hFwdGetS {
			check(v.String()+"/"+ty.String(), hammerCell(v, ty),
				hostRule{act: doRecall, send: coherence.HData, ack: coherence.HAck, yields: true})
		}
		check(v.String()+"/H:FwdGetM", hammerCell(v, coherence.HFwdGetM),
			hostRule{act: doRecall, send: coherence.HData, ack: coherence.HAck})
	}
	// A shared copy does not conflict with Fwd_GetS: the snoop is filtered,
	// acked as a sharer without a recall.
	for _, ty := range hFwdGetS {
		check("S/"+ty.String(), hammerCell(hS, ty), hostRule{act: doAnswer, ack: coherence.HAck, shared: true})
	}
	// The read-only block the guard owns (Guarantee 0b): the trusted copy
	// answers, after the accelerator's S copy is recalled wherever the
	// request takes the block away (Fwd_GetM, InvToL2). On MESI's Fwd_GetS
	// the guard stops owning the block.
	for _, ty := range hFwdGetS {
		check("S+copy/"+ty.String(), hammerCell(hSCopy, ty), hostRule{act: doAnswer, send: coherence.HData})
	}
	check("S+copy/H:FwdGetM", hammerCell(hSCopy, coherence.HFwdGetM), hostRule{act: doServe, send: coherence.HData})
	check("S+copy/M:FwdGetS", mesiCell(hSCopy, coherence.MFwdGetS),
		hostRule{act: doAnswer, send: coherence.MDataOwner, l2: true, yields: true})
	check("S+copy/M:FwdGetM", mesiCell(hSCopy, coherence.MFwdGetM),
		hostRule{act: doServe, send: coherence.MDataOwner, ack: coherence.MInvAck})
	check("S+copy/M:InvToL2", mesiCell(hSCopy, coherence.MInvToL2),
		hostRule{act: doServe, send: coherence.MCopyToL2, ack: coherence.MInvAckToL2})
	// Only MESI keeps exact sharers, so only it is told of a PutS.
	if hammerHost.putS != none || mesiHost.putS != coherence.MPutS {
		t.Errorf("PutS: hammer %v, mesi %v; want none and M:PutS", hammerHost.putS, mesiHost.putS)
	}

	// Every view has a cell for every forward, so the guard answers the
	// host whatever it believes the accelerator holds; responses have
	// cells only with a get open, acks only with a writeback open.
	for _, c := range []struct {
		rules             *coherence.Rules[hostKey, hostRule]
		fwds, resps, acks []coherence.MsgType
	}{
		{hammerRules, hFwds, []coherence.MsgType{coherence.HData, coherence.HAck, coherence.HMemData},
			[]coherence.MsgType{coherence.HWBAck, coherence.HNack}},
		{mesiRules, []coherence.MsgType{coherence.MInv, coherence.MInvToL2, coherence.MFwdGetS, coherence.MFwdGetM},
			[]coherence.MsgType{coherence.MDataE, coherence.MDataS, coherence.MDataAcks, coherence.MDataOwner, coherence.MInvAck},
			[]coherence.MsgType{coherence.MWBAck}},
	} {
		for v := hNone; v <= hSCopy; v++ {
			for _, ty := range c.fwds {
				if c.rules.At(v, c.rules.Vocab.Event(ty)) == nil {
					t.Errorf("%s: no cell for %v/%v", c.rules.Class, v, ty)
				}
			}
		}
		for k := hNone; k <= keyGet; k++ {
			for _, ty := range c.resps {
				if r := c.rules.At(k, c.rules.Vocab.Event(ty)); (r != nil) != (k == keyGet) || r != nil && r.act != doCollect {
					t.Errorf("%s: %v/%v is %+v; a response is collected only with a get open", c.rules.Class, k, ty, r)
				}
			}
			for _, ty := range c.acks {
				if r := c.rules.At(k, c.rules.Vocab.Event(ty)); (r != nil) != (k == keyPut || k == keyLost && c.rules == hammerRules) ||
					r != nil && r.act != doRetire {
					t.Errorf("%s: %v/%v is %+v; an ack retires only an open writeback", c.rules.Class, k, ty, r)
				}
			}
		}
	}
}

// newHostRig builds a Full State guard in front of its real host table,
// with recorders at the home (node 10) and at a requestor (node 11).
func newHostRig(host string) (*Guard, *sim.Engine, *[]sent, *coherence.ErrorLog) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
	fab.CheckLifetimes()
	fab.Register(&accelSink{id: 200, eng: eng})
	log := new([]sent)
	fab.Register(&recorder{10, log})
	fab.Register(&recorder{11, log})
	errs := coherence.NewErrorLog()
	cfg := Config{Mode: FullState, GuardLat: 1}
	if host == "hammer" {
		return NewHammerGuard(40, "xg", eng, fab, 200, 10, 1, cfg, errs), eng, log, errs
	}
	return NewMESIGuard(40, "xg", eng, fab, 200, 10, cfg, errs), eng, log, errs
}

// The host paths no campaign reaches, each driven by hand: what the guard
// reports, the cell it records (an undeclared one for a message no correct
// host sends) and what it sends.
func TestHostPathsNoCampaignReaches(t *testing.T) {
	const A mem.Addr = 0x40
	zeros := func(ty coherence.MsgType, dst coherence.NodeID) sent { return sent{ty, dst, 0, false, false} }
	for _, c := range []struct {
		name       string
		host       string
		m          coherence.Msg
		code       string
		detail     string
		cell       string
		undeclared bool
		sends      []sent
	}{
		{"response with no open get", "hammer", coherence.Msg{Type: coherence.HData, Data: &mem.Block{1}},
			"XG.HostAnomaly", "response with no open get", "None/H:Data", true, nil},
		{"response with no open get", "mesi", coherence.Msg{Type: coherence.MDataS, Data: &mem.Block{1}},
			"XG.HostAnomaly", "response with no open get", "None/M:DataS", true, nil},
		{"WBAck with no open put", "hammer", coherence.Msg{Type: coherence.HWBAck},
			"XG.HostAnomaly", "WBAck with no open put", "None/H:WBAck", true, nil},
		{"WBAck with no open put", "mesi", coherence.Msg{Type: coherence.MWBAck},
			"XG.HostAnomaly", "WBAck with no open put", "None/M:WBAck", true, nil},
		{"unexpected Nack", "hammer", coherence.Msg{Type: coherence.HNack},
			"XG.HostNack", "unexpected Nack sunk", "None/H:Nack", true, nil},
		// Guarantee 2a: zeros keep the host alive, the L2 gets its copy.
		{"Fwd_GetS to a non-owner guard", "mesi", coherence.Msg{Type: coherence.MFwdGetS, Requestor: 11},
			"XG.G2a", "host forwarded to a non-owner guard", "None/M:FwdGetS", false,
			[]sent{zeros(coherence.MDataOwner, 11), zeros(coherence.MCopyToL2, 10)}},
		{"Fwd_GetM to a non-owner guard", "mesi", coherence.Msg{Type: coherence.MFwdGetM, Requestor: 11},
			"XG.G2a", "host forwarded to a non-owner guard", "None/M:FwdGetM", false,
			[]sent{zeros(coherence.MDataOwner, 11)}},
	} {
		t.Run(c.host+"/"+c.name, func(t *testing.T) {
			g, eng, log, errs := newHostRig(c.host)
			m := c.m
			m.Addr, m.Src, m.Dst = A, 10, 40
			g.Recv(&m)
			eng.RunUntilQuiet()
			if len(errs.Errors) != 1 || errs.Errors[0].Code != c.code || errs.Errors[0].Detail != c.detail {
				t.Errorf("reported %v, want one %s: %s", errs.Errors, c.code, c.detail)
			}
			cov := g.HostCoverage()
			if got := cov.Snapshot(); !maps.Equal(got, map[string]uint64{c.cell: 1}) {
				t.Errorf("visits %v, want %s once", got, c.cell)
			}
			var unexpected []string
			if c.undeclared {
				unexpected = []string{c.cell}
			}
			if !slices.Equal(cov.Unexpected, unexpected) {
				t.Errorf("undeclared visits %v, want %v", cov.Unexpected, unexpected)
			}
			if !reflect.DeepEqual(*log, c.sends) {
				t.Errorf("sent %v, want %v", *log, c.sends)
			}
			if len(g.lines) != 0 {
				t.Errorf("%d lines left in the table", len(g.lines))
			}
		})
	}
}
