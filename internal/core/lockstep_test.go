package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/core"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
	"crossingguard/internal/tester"
)

// The lockstep: every guard of a machine runs beside its reference guard
// (reference_test.go). The harness sees the guard only as any observer
// does — the trace bus, its two coverages' OnRecord and VisitBlocks — and
// feeds the reference what crosses the guard in the order the guard takes
// it. Every cell the guard records must be the cell the reference
// predicts, every violation code the code it predicts, in order; a
// re-run of a parked request is the reference's next queued one. After
// the run, the Full State table must be the reference's.

// lockstep is one machine's guards in lockstep with their references.
type lockstep struct {
	guards []*guardStep
	err    error
	// cells and codes count the guard's recorded cells and violations
	// the references predicted.
	cells, codes int
}

// guardStep is one guard, its reference and what the reference predicted
// the guard has yet to do.
type guardStep struct {
	g     *core.Guard
	ref   *core.Reference
	cells []core.RefCell
	codes []string
}

// attachLockstep puts every guard of sys in lockstep with a reference. Call
// it on a built machine, before it runs.
func attachLockstep(sys *config.System) *lockstep {
	ls := &lockstep{}
	for _, g := range sys.Guards {
		s := &guardStep{g: g, ref: core.ReferenceFor(g)}
		ls.guards = append(ls.guards, s)
		g.Coverage().OnRecord = func(st, ev int) { ls.recorded(s, core.RefCell{State: st, Event: ev}) }
		g.HostCoverage().OnRecord = func(st, ev int) { ls.recorded(s, core.RefCell{Host: true, State: st, Event: ev}) }
	}
	sys.Fab.Bus = obs.NewBus(ls)
	return ls
}

func (ls *lockstep) fail(s *guardStep, format string, args ...any) {
	if ls.err == nil {
		ls.err = fmt.Errorf("%s: %s", s.g.Name(), fmt.Sprintf(format, args...))
	}
}

// take queues what the reference predicted.
func (s *guardStep) take() {
	cells, codes := s.ref.Take()
	s.cells, s.codes = append(s.cells, cells...), append(s.codes, codes...)
}

// Emit implements obs.Sink: it feeds each guard's reference the messages
// the guard takes, its host requests and its watchdog, and checks its
// violations.
func (ls *lockstep) Emit(e obs.Event) error {
	for _, s := range ls.guards {
		g := s.g
		switch {
		case e.Kind == obs.KindRecv && e.Component == g.Name():
			s.ref.Deliver(e.From == g.AccelID(), payloadInt(e.Payload, "epoch="), e.Addr.Line(), coreMsg(e))
		case e.Kind == obs.KindSend && e.From == g.ID():
			s.ref.Dispatched(e.Addr, e.Msg)
		case e.Kind == obs.KindTimeout && e.Component == g.Name():
			s.ref.Timeout(e.Addr)
		case e.Kind == obs.KindViolation && e.Component == g.Name():
			code, _, _ := strings.Cut(e.Payload, ":")
			if len(s.codes) == 0 || s.codes[0] != code {
				ls.fail(s, "tick %d: guard reported %s at %v, reference predicted %q", e.Tick, code, e.Addr, s.codes)
				continue
			}
			s.codes = s.codes[1:]
			ls.codes++
		case (e.Kind == obs.KindQuarantine || e.Kind == obs.KindRecovery) && e.Component == g.Name():
			ls.fail(s, "%v: quarantine and recovery are outside the reference", e)
		default:
			continue
		}
		s.take()
		if err := s.ref.Err; err != nil {
			ls.fail(s, "tick %d: %v", e.Tick, err)
		}
	}
	return nil
}

// recorded checks a cell the guard recorded against the reference's next;
// with none predicted, an accelerator-half cell is the guard re-running a
// parked request, which the reference re-runs too.
func (ls *lockstep) recorded(s *guardStep, got core.RefCell) {
	if len(s.cells) == 0 && !got.Host && s.ref.Rerun() {
		s.take()
	}
	if len(s.cells) == 0 {
		ls.fail(s, "guard recorded %s, reference predicted nothing", s.ref.CellName(got))
		return
	}
	if want := s.cells[0]; want != got {
		ls.fail(s, "guard recorded %s, reference predicted %s", s.ref.CellName(got), s.ref.CellName(want))
	}
	s.cells = s.cells[1:]
	ls.cells++
}

// check ends the lockstep after a run: nothing predicted is left undone,
// a quiet guard leaves its reference quiet, and the Full State table is
// the reference's.
func (ls *lockstep) check() error {
	if ls.err != nil {
		return ls.err
	}
	for _, s := range ls.guards {
		if len(s.cells)+len(s.codes) > 0 {
			ls.fail(s, "reference predicted cells %v and codes %q the guard never recorded", s.cells, s.codes)
		}
		if open := s.ref.Open(); s.g.Outstanding() == 0 && open != "" {
			ls.fail(s, "guard quiet, reference has %s", open)
		}
		var table []string
		s.g.VisitBlocks(func(addr mem.Addr, accel, host core.Grant, hasCopy bool) {
			table = append(table, fmt.Sprintf("%v %v/%v", addr, accel, host))
			if hasCopy {
				ls.fail(s, "%v: a trusted copy, outside the reference", addr)
			}
		})
		if want := s.ref.Blocks(); !slices.Equal(table, want) {
			ls.fail(s, "Full State table %q, reference %q", table, want)
		}
	}
	return ls.err
}

// coreMsg is the message of a receive event, as the reference takes it.
func coreMsg(e obs.Event) core.RefMsg {
	return core.RefMsg{Type: e.Msg, Data: strings.Contains(e.Payload, "+data"),
		Shared: slices.Contains(strings.Fields(e.Payload), "shared"), Acks: int(payloadInt(e.Payload, "acks="))}
}

// payloadInt reads the number after key in a message event's payload.
func payloadInt(payload, key string) uint32 {
	for _, f := range strings.Fields(payload) {
		if v, ok := strings.CutPrefix(f, key); ok {
			n, _ := strconv.Atoi(v)
			return uint32(n)
		}
	}
	return 0
}

// guardedOrgs are the machines in the lockstep's scope: both guard
// variants, one- and two-level.
var guardedOrgs = []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L, config.OrgXGFull2L, config.OrgXGTxn2L}

// TestLockstepStress runs E3's stress shards (xgcampaign -mode stress: 2
// CPUs, 2 accelerator cores, 100 stores a location) at seeds 1 and 2 on
// every guarded machine in lockstep.
func TestLockstepStress(t *testing.T) {
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range guardedOrgs {
			for seed := int64(1); seed <= 2; seed++ {
				sys := config.Build(config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 2, Seed: seed * 97, Small: true})
				ls := attachLockstep(sys)
				cfg := tester.DefaultConfig(seed * 131)
				cfg.StoresPerLoc = 100
				cfg.Deadline = 400_000_000
				if _, err := tester.Run(sys, cfg); err != nil {
					t.Fatalf("%v/%v seed %d: %v", host, org, seed, err)
				}
				if err := ls.check(); err != nil {
					t.Fatalf("%v/%v seed %d: %v", host, org, seed, err)
				}
				t.Logf("%v/%v seed %d: %d cells %d codes", host, org, seed, ls.cells, ls.codes)
				if ls.cells == 0 {
					t.Fatalf("%v/%v seed %d: no cell checked", host, org, seed)
				}
			}
		}
	}
}

// injector is a deaf accelerator: the decoded stream is all the guard gets
// from its side, and an Invalidate goes unanswered (Guarantee 2c).
type injector struct{ id coherence.NodeID }

func (i *injector) ID() coherence.NodeID { return i.id }
func (i *injector) Name() string         { return "injector" }
func (i *injector) Recv(*coherence.Msg)  {}

// hostView drives the CPUs only and audits the host.
type hostView struct{ *config.System }

func (h hostView) Sequencers() []*seq.Sequencer { return h.CPUSeqs }
func (h hostView) Outstanding() int             { return h.HostOutstanding() }
func (h hostView) Audit() error                 { return h.AuditHostOnly() }

// streamTypes is FuzzGuardMessageStream's vocabulary (internal/fuzz): the
// accelerator interface, the guard's own messages sent back at it, both
// hosts' messages, accelerator-internal and sequencer types, and garbage.
var streamTypes = []coherence.MsgType{
	coherence.AGetS, coherence.AGetM, coherence.APutM, coherence.APutE, coherence.APutS,
	coherence.AInvAck, coherence.ACleanWB, coherence.ADirtyWB,
	coherence.ADataS, coherence.ADataM, coherence.AWBAck, coherence.AInv,
	coherence.HGetS, coherence.HGetM, coherence.HData, coherence.HNack,
	coherence.HWBData, coherence.HUnblock, coherence.HFwdGetM,
	coherence.MGetM, coherence.MInvAck, coherence.MCopyToL2, coherence.MUnblock,
	coherence.MDataE, coherence.MFwdGetS,
	coherence.XGetS, coherence.XInvWB, coherence.ReqStore, coherence.RespLoad,
	coherence.MsgType(200), coherence.MsgInvalid,
}

// runStream runs FuzzGuardMessageStream's machine on data — byte 0 picks
// the host and the guarded organization, each 4 bytes after it are one
// message (type, address, flags, gap) — with the guard in lockstep.
func runStream(data []byte) (*lockstep, error) {
	if len(data) == 0 {
		return nil, nil
	}
	sel := data[0]
	host := config.HostHammer
	if sel&1 != 0 {
		host = config.HostMESI
	}
	stream := data[1:]
	if len(stream) > 4*400 {
		stream = stream[:4*400]
	}
	var accelID, xgID coherence.NodeID
	sys := config.Build(config.Spec{
		Host: host, Org: guardedOrgs[(sel>>1)&3], CPUs: 2, AccelCores: 1,
		Seed: int64(sel)*131 + 7, Small: true, Timeout: 2000,
		CustomAccel: func(s *config.System, slot *config.CustomSlot) {
			accelID, xgID = slot.AccelID, slot.XGID
			inj := config.SlotDevice[injector](slot)
			inj.id = slot.AccelID
			s.Fab.Register(inj)
		}})
	ls := attachLockstep(sys)
	at := sim.Time(1)
	for i := 0; i+3 < len(stream); i += 4 {
		ty := streamTypes[int(stream[i])%len(streamTypes)]
		addr := mem.Addr(0x10000 + int(stream[i+1])%8*mem.BlockBytes)
		if stream[i+1]&0x80 != 0 {
			addr += mem.Addr(stream[i+1] & 0x3f) // unaligned probe
		}
		flags := stream[i+2]
		var payload *mem.Block
		if flags&1 != 0 {
			payload = &mem.Block{stream[i+3]}
		}
		src := accelID
		if flags&4 != 0 && (ty.IsAccelRequest() || ty.IsAccelResponse()) {
			src = accelID + 7 // unregistered forger
		}
		m := &coherence.Msg{Type: ty, Addr: addr, Src: src, Dst: xgID, Data: payload, Dirty: flags&2 != 0}
		at += sim.Time(stream[i+3]%32) + 1
		sys.Eng.ScheduleAt(at, func() { sys.Fab.Send(m) })
	}
	cfg := tester.DefaultConfig(int64(sel) * 17)
	cfg.Lines, cfg.StoresPerLoc, cfg.Deadline = 4, 4, 5_000_000
	cfg.SkipValueChecks = true
	if _, err := tester.Run(hostView{sys}, cfg); err != nil {
		return ls, err
	}
	return ls, ls.check()
}

// scripted is a stream for selector sel that visits every Full State cell
// a request can be rejected in. Lines 4 and 5 are the accelerator's alone,
// so a Get there is granted exclusively: M, then every request M may not
// send, a writeback, and every Put a line not held may not send; E, and
// what E may not send. The CPUs work on lines 0-3, where a GetS may be
// granted S and a host request may recall the line; there the accelerator
// answers or races recalls it cannot see. Each step is a type (an index
// into streamTypes), a line, a data flag, and the ticks before it, waited
// in gaps of at most 32 behind garbage the guard drops at its port.
func scripted(sel byte) []byte {
	const getS, getM, putM, putE, putS, invAck, cleanWB, dirtyWB, garbage = 0, 1, 2, 3, 4, 5, 6, 7, 29
	out := []byte{sel}
	for _, st := range [][4]int{
		{getM, 4, 0, 1}, {getS, 4, 0, 400}, {getM, 4, 0, 40}, {putE, 4, 1, 40}, {putS, 4, 0, 40},
		{putM, 4, 1, 40}, {putM, 4, 1, 400}, {putE, 4, 1, 40}, {putS, 4, 0, 40}, {invAck, 4, 0, 40}, {cleanWB, 4, 1, 40},
		{getS, 5, 0, 1}, {getS, 5, 0, 400}, {getM, 5, 0, 40}, {putS, 5, 0, 40}, {putM, 5, 0, 40},
		{getS, 0, 0, 1}, {getS, 1, 0, 1}, {getS, 2, 0, 1}, {getM, 3, 0, 1},
		{getS, 0, 0, 400}, {putM, 0, 1, 40}, {putE, 1, 1, 40}, {getS, 2, 0, 40}, {dirtyWB, 3, 1, 200},
		{putS, 0, 0, 200}, {invAck, 1, 0, 200}, {cleanWB, 2, 1, 200}, {putM, 3, 1, 200}, {invAck, 3, 0, 300},
	} {
		for wait := st[3]; wait > 32; wait -= 32 {
			out = append(out, garbage, 7, 0, 31)
		}
		out = append(out, byte(st[0]), byte(st[1]), byte(st[2]), byte(min(st[3], 32)-1))
	}
	return out
}

// FuzzGuardLockstep runs FuzzGuardMessageStream's streams with the guard in
// lockstep with its reference. Its seeds are that target's corpus plus one
// stream for each (host, organization) it lacks.
func FuzzGuardLockstep(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2})
	f.Add([]byte{0x02, 5, 3, 1, 2, 12, 9, 0, 3, 30, 2, 7, 21, 8, 4, 15})
	f.Add([]byte{0x0f, 28, 0, 3, 9, 29, 1, 2, 31, 4, 7, 7, 13, 130, 255, 0})
	files, _ := filepath.Glob("../fuzz/testdata/fuzz/FuzzGuardMessageStream/*")
	for _, name := range files {
		text, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(text)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			f.Fatalf("%s: not a []byte corpus entry", name)
		}
		f.Add([]byte(data))
	}
	for sel := byte(0); sel < 8; sel++ {
		f.Add(scripted(sel))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := runStream(data); err != nil {
			t.Fatal(err)
		}
	})
}
