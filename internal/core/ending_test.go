package core

import (
	"fmt"
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// answerLog is the recall's requestor in the ending test: it writes what the
// host side was answered, and when, into the same log as the trace bus.
type answerLog struct {
	eng *sim.Engine
	log *[]string
}

// The line the ending test recalls, and one a stray InvAck trips quarantine
// on (Guarantee 2b: no recall is open there).
const endLine, strayLine = mem.Addr(0x40), mem.Addr(0x80)

// TestRecallEndingOrder pins, for every way a recall ends and every view the
// guard can hold when it opens, the order of what the ending does: the
// violation it reports, the fence it may trip and how many lines that
// fences, the WBAck a crossing Put gets and the host's answer, with the
// answer's data and dirty bit. The views S, E and M are Full State lines the
// accelerator holds, None one it does not, Unknown a Transactional guard's.
// The guard's latency equals the link's, so the WBAck's send and the
// answer's arrival fall in the same tick, in the order the guard made them.
func TestRecallEndingOrder(t *testing.T) {
	type ending struct {
		name string
		cfg  Config
		// before runs ahead of the recall, after once its Invalidate is out.
		before, after func(r *coreRig)
	}
	from := func(ty coherence.MsgType, addr mem.Addr, data *mem.Block) func(r *coreRig) {
		return func(r *coreRig) {
			r.g.Recv(&coherence.Msg{Type: ty, Addr: addr, Src: 200, Dst: 40, Data: data,
				Dirty: ty == coherence.APutM || ty == coherence.ADirtyWB})
		}
	}
	nothing := func(*coreRig) {}
	// A first violation fences the accelerator, except under the timeout,
	// whose fence would end the recall itself.
	fence, noFence := Config{GuardLat: 1, Timeout: 100, QuarantineAfter: 1}, Config{GuardLat: 1, Timeout: 100}
	endings := []ending{
		{"InvAck", fence, nothing, from(coherence.AInvAck, endLine, nil)},
		{"DirtyWB", fence, nothing, from(coherence.ADirtyWB, endLine, &mem.Block{7})},
		{"PutM race", fence, nothing, from(coherence.APutM, endLine, &mem.Block{9})},
		{"PutS race", fence, nothing, from(coherence.APutS, endLine, nil)},
		{"timeout", noFence, nothing, nothing},
		{"quarantine", fence, nothing, from(coherence.AInvAck, strayLine, nil)},
		{"fenced", fence, from(coherence.AInvAck, strayLine, nil), nothing},
	}
	want := map[string]string{
		"InvAck/None":        "t=6 M:InvAck data=-1 dirty=false",
		"InvAck/S":           "t=6 M:InvAck data=-1 dirty=false",
		"InvAck/E":           "t=5 XG.G2a; t=5 fence 0; t=6 M:DataOwner data=0 dirty=true",
		"InvAck/M":           "t=5 XG.G2a; t=5 fence 0; t=6 M:DataOwner data=0 dirty=true",
		"InvAck/Unknown":     "t=6 M:InvAck data=-1 dirty=false",
		"DirtyWB/None":       "t=5 XG.G2a; t=5 fence 0; t=6 M:InvAck data=-1 dirty=false",
		"DirtyWB/S":          "t=5 XG.G2a; t=5 fence 0; t=6 M:InvAck data=-1 dirty=false",
		"DirtyWB/E":          "t=6 M:DataOwner data=7 dirty=true",
		"DirtyWB/M":          "t=6 M:DataOwner data=7 dirty=true",
		"DirtyWB/Unknown":    "t=6 M:DataOwner data=7 dirty=true",
		"PutM race/None":     "t=5 XG.G2a; t=5 fence 0; t=6 WBAck; t=6 M:InvAck data=-1 dirty=false",
		"PutM race/S":        "t=5 XG.G2a; t=5 fence 1; t=6 WBAck; t=6 M:InvAck data=-1 dirty=false",
		"PutM race/E":        "t=6 WBAck; t=6 M:DataOwner data=9 dirty=true",
		"PutM race/M":        "t=6 WBAck; t=6 M:DataOwner data=9 dirty=true",
		"PutM race/Unknown":  "t=6 WBAck; t=6 M:DataOwner data=9 dirty=true",
		"PutS race/None":     "t=6 WBAck; t=6 M:InvAck data=-1 dirty=false",
		"PutS race/S":        "t=6 WBAck; t=6 M:InvAck data=-1 dirty=false",
		"PutS race/E":        "t=5 XG.G2a; t=5 fence 1; t=6 WBAck; t=6 M:DataOwner data=0 dirty=true",
		"PutS race/M":        "t=5 XG.G2a; t=5 fence 1; t=6 WBAck; t=6 M:DataOwner data=0 dirty=true",
		"PutS race/Unknown":  "t=6 WBAck; t=6 M:InvAck data=-1 dirty=false",
		"timeout/None":       "t=100 XG.G2c; t=101 M:InvAck data=-1 dirty=false",
		"timeout/S":          "t=100 XG.G2c; t=101 M:InvAck data=-1 dirty=false",
		"timeout/E":          "t=100 XG.G2c; t=101 M:DataOwner data=0 dirty=true",
		"timeout/M":          "t=100 XG.G2c; t=101 M:DataOwner data=0 dirty=true",
		"timeout/Unknown":    "t=100 XG.G2c; t=101 M:InvAck data=-1 dirty=false",
		"quarantine/None":    "t=5 XG.G2b; t=5 fence 0; t=6 M:InvAck data=-1 dirty=false",
		"quarantine/S":       "t=5 XG.G2b; t=5 fence 1; t=6 M:InvAck data=-1 dirty=false",
		"quarantine/E":       "t=5 XG.G2b; t=5 fence 1; t=6 M:DataOwner data=0 dirty=true",
		"quarantine/M":       "t=5 XG.G2b; t=5 fence 1; t=6 M:DataOwner data=0 dirty=true",
		"quarantine/Unknown": "t=5 XG.G2b; t=5 fence 0; t=6 M:InvAck data=-1 dirty=false",
		"fenced/None":        "t=0 XG.G2b; t=0 fence 0; t=1 M:InvAck data=-1 dirty=false",
		"fenced/S":           "t=0 XG.G2b; t=0 fence 1; t=1 M:InvAck data=-1 dirty=false",
		"fenced/E":           "t=0 XG.G2b; t=0 fence 1; t=1 M:DataOwner data=0 dirty=true",
		"fenced/M":           "t=0 XG.G2b; t=0 fence 1; t=1 M:DataOwner data=0 dirty=true",
		"fenced/Unknown":     "t=0 XG.G2b; t=0 fence 0; t=1 M:InvAck data=-1 dirty=false",
	}
	for _, e := range endings {
		for _, view := range []viewState{viewNone, viewS, viewE, viewM, viewUnknown} {
			name := e.name + "/" + view.String()
			t.Run(name, func(t *testing.T) {
				mode := FullState
				if view == viewUnknown {
					mode = Transactional
				}
				r := newRecallRig(mode, e.cfg)
				reg := obs.NewRegistry()
				r.g.AttachObs(reg)
				if view != viewNone && view != viewUnknown {
					held := [...]Grant{viewS: GrantS, viewE: GrantE, viewM: GrantM}[view]
					tableView{r.g, endLine}.grant(held, held, false, nil, false)
				}
				r.fab.SetInterceptor(nil) // the answer reaches answerLog
				var got []string
				r.fab.Register(&answerLog{r.eng, &got})
				r.fab.Bus = obs.NewBus(obs.FuncSink(func(ev obs.Event) error {
					switch {
					case ev.Kind == obs.KindViolation:
						got = append(got, fmt.Sprintf("t=%d %s", ev.Tick, strings.SplitN(ev.Payload, ":", 2)[0]))
					case ev.Kind == obs.KindQuarantine:
						got = append(got, fmt.Sprintf("t=%d fence %d", ev.Tick, reg.Counter("guard.quarantine.fenced_lines").Value()))
					case ev.Kind == obs.KindSend && ev.Msg == coherence.AWBAck:
						got = append(got, fmt.Sprintf("t=%d WBAck", ev.Tick))
					}
					return nil
				}))
				e.before(r)
				r.g.startRecall(endLine, view, recallCont{do: &probeCell, req: probe})
				r.eng.RunUntil(5)
				e.after(r)
				r.eng.RunUntilQuiet()
				if g := strings.Join(got, "; "); g != want[name] {
					t.Errorf("got  %s\nwant %s", g, want[name])
				}
			})
		}
	}
}

func (a *answerLog) ID() coherence.NodeID { return probe }
func (a *answerLog) Name() string         { return "answerLog" }
func (a *answerLog) Recv(m *coherence.Msg) {
	data := -1
	if m.Data != nil {
		data = int(m.Data[0])
	}
	*a.log = append(*a.log, fmt.Sprintf("t=%d %v data=%d dirty=%t", a.eng.Now(), m.Type, data, m.Dirty))
}
