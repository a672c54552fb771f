package accel

import (
	"fmt"
	"reflect"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// l1Stub stands in for an inner L1 below the shared L2: it logs what
// reaches it (one arrival log for the whole rig, so order across stubs
// shows) and sends whatever the test scripts.
type l1Stub struct {
	id  coherence.NodeID
	r   *sl2Rig
	ack bool // answer XInv with XInvAck at once
}

func (s *l1Stub) ID() coherence.NodeID { return s.id }
func (s *l1Stub) Name() string         { return fmt.Sprintf("l1stub%d", s.id) }

func (s *l1Stub) Recv(m *coherence.Msg) {
	s.r.log = append(s.r.log, fmt.Sprintf("%d %v", s.id, m.Type))
	if m.Type == coherence.XInv && s.ack {
		s.send(coherence.XInvAck, m.Addr, nil)
	}
}

func (s *l1Stub) send(ty coherence.MsgType, addr mem.Addr, data *mem.Block) {
	s.r.fab.Send(s.r.fab.Msg(coherence.Msg{Type: ty, Addr: addr, Src: s.id, Dst: s.r.l2.ID(), Data: data}))
}

// sl2Rig is a shared L2 between a mock guard and stub inner L1s, every
// channel ordered with latency 1 and the L2 lookup taking 4 ticks.
type sl2Rig struct {
	eng *sim.Engine
	fab *network.Fabric
	xg  *mockGuard
	l2  *SharedL2
	l1s map[coherence.NodeID]*l1Stub
	log []string
}

const sl2Line0 = mem.Addr(0x4000)

func newSL2Rig(l1s ...coherence.NodeID) *sl2Rig {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
	cfg := tinyCfg()
	cfg.L2Sets, cfg.L2Ways, cfg.L2Lat = 2, 2, 4
	r := &sl2Rig{eng: eng, fab: fab, xg: newMockGuard(1, eng, fab), l1s: map[coherence.NodeID]*l1Stub{}}
	r.l2 = NewSharedL2(10, "accelL2", eng, fab, 1, cfg)
	for _, id := range l1s {
		r.l1s[id] = &l1Stub{id: id, r: r, ack: true}
		fab.Register(r.l1s[id])
	}
	return r
}

// quiesce drains the engine and requires the L2 idle and every message
// except the guard's kept Invalidate responses back in the pool.
func (r *sl2Rig) quiesce(t *testing.T) {
	t.Helper()
	r.eng.RunUntilQuiet()
	if n := r.l2.Outstanding(); n != 0 {
		t.Fatalf("%d transactions outstanding at the shared L2", n)
	}
	if out := r.fab.Stats().MsgsOut; out != len(r.xg.invResps) {
		t.Fatalf("%d messages out of the pool at quiesce, the guard keeps %d", out, len(r.xg.invResps))
	}
}

// A recall invalidates the sharers in ascending node order whatever order
// they joined in — the order is the NodeSet's own, not a sort at the send
// site — and the owner after them.
func TestSharedL2InvalidatesSharersAscending(t *testing.T) {
	r := newSL2Rig(23, 21, 22)
	for _, id := range []coherence.NodeID{23, 21, 22} {
		r.l1s[id].send(coherence.XGetS, sl2Line0, nil)
		r.quiesce(t)
	}
	r.log = nil
	r.xg.inv(sl2Line0, r.l2.ID())
	r.quiesce(t)
	if want := []string{"21 X:Inv", "22 X:Inv", "23 X:Inv"}; !reflect.DeepEqual(r.log, want) {
		t.Fatalf("invalidations arrived as %v, want %v", r.log, want)
	}
	if n := len(r.xg.invResps); n != 1 || r.xg.invResps[0].Type != coherence.AInvAck {
		t.Fatalf("guard got %d responses (%v), want one A:InvAck", n, r.xg.invResps)
	}

	// Same line again, now with an owner among them: a writer's GetM
	// invalidates the other two sharers in order, and the recall that
	// follows reaches the owner alone.
	for _, id := range []coherence.NodeID{22, 23, 21} {
		r.l1s[id].send(coherence.XGetS, sl2Line0, nil)
		r.quiesce(t)
	}
	r.log = nil
	r.l1s[22].send(coherence.XGetM, sl2Line0, nil)
	r.quiesce(t)
	if want := []string{"21 X:Inv", "23 X:Inv", "22 X:DataM"}; !reflect.DeepEqual(r.log, want) {
		t.Fatalf("a sharer's GetM was served as %v, want %v", r.log, want)
	}
}

// An owner's Put that crosses the L2's Inv is taken as the response, and
// the XInvAck the owner then sends for that Inv arrives after the recall
// has finished and the line has left the cache: it is dropped, exactly
// once, by the (line, node) table that outlives the line.
func TestSharedL2IgnoresLateInvAckAfterLineLeft(t *testing.T) {
	r := newSL2Rig(21)
	owner := r.l1s[21]
	owner.ack = false
	owner.send(coherence.XGetM, sl2Line0, nil)
	r.quiesce(t)

	dirty := mem.Block{0: 0xAB}
	r.xg.inv(sl2Line0, r.l2.ID())                 // at the L2 at tick+1, its XInv at the owner at +2
	owner.send(coherence.XPutM, sl2Line0, &dirty) // at the L2 at +1, after the Inv: the crossing
	r.quiesce(t)
	if r.l2.cache.Peek(sl2Line0) != nil {
		t.Fatal("line still in the shared L2 after the recall")
	}
	if n := len(r.xg.invResps); n != 1 || r.xg.invResps[0].Type != coherence.ADirtyWB || r.xg.invResps[0].Data[0] != 0xAB {
		t.Fatalf("guard got %v, want one A:DirtyWB carrying the Put's data", r.xg.invResps)
	}
	if n := r.l2.ignoreAck[ackKey{sl2Line0, 21}]; n != 1 {
		t.Fatalf("%d acks to ignore from node 21, want 1", n)
	}

	owner.send(coherence.XInvAck, sl2Line0, nil) // the late one
	r.quiesce(t)
	if len(r.l2.ignoreAck) != 0 {
		t.Fatalf("ignore table not emptied: %v", r.l2.ignoreAck)
	}

	// Only that one: the next stray ack is the protocol error it always was.
	defer func() {
		if recover() == nil {
			t.Fatal("a second XInvAck with no transaction did not panic")
		}
	}()
	owner.send(coherence.XInvAck, sl2Line0, nil)
	r.eng.RunUntilQuiet()
}

// A guard Invalidate that arrives while the line is in a local transaction
// is parked for the line, kept, and served the moment the
// transaction closes — ahead of a request that was already queued, whose
// own guard Get must wait for the Invalidate's answer.
func TestSharedL2ParksGuardInvalidateOnBusyLine(t *testing.T) {
	r := newSL2Rig(21, 22, 23)
	owner := r.l1s[21]
	owner.ack = false
	owner.send(coherence.XGetM, sl2Line0, nil)
	r.quiesce(t)
	r.log = nil

	// 22's GetS opens the lookup (tick+1); 23's GetS queues behind it and
	// the guard's Invalidate lands in the lookup window (+2).
	dirty := mem.Block{0: 0xCD}
	r.l1s[22].send(coherence.XGetS, sl2Line0, nil)
	r.eng.Schedule(1, func() {
		r.l1s[23].send(coherence.XGetS, sl2Line0, nil)
		r.xg.inv(sl2Line0, r.l2.ID())
	})
	// The XInv reaches the owner at +6; it answers at +10, and until then
	// the Invalidate waits on the line.
	r.eng.Schedule(9, func() {
		e := r.l2.cache.Peek(sl2Line0)
		if e == nil || !e.V.busy() || !r.l2.invs.Waiting(sl2Line0) || r.l2.invs.Len() != 1 {
			t.Errorf("guard Invalidate not parked on the busy line: %+v", e)
		}
		if n := r.l2.Outstanding(); n != 3 { // the transaction, the parked Invalidate, 23's queued Get
			t.Errorf("Outstanding = %d with a parked Invalidate, want 3", n)
		}
		if len(r.xg.invResps) != 0 {
			t.Errorf("guard answered before the local transaction closed: %v", r.xg.invResps)
		}
		owner.send(coherence.XInvWB, sl2Line0, &dirty)
	})
	var getsAtAnswer uint64
	r.xg.onInvResp = func() { getsAtAnswer = r.xg.gets }
	r.eng.RunUntilQuiet()

	want := []string{"21 X:Inv", "22 X:DataS", "22 X:Inv", "23 X:DataS"}
	if !reflect.DeepEqual(r.log, want) {
		t.Fatalf("inner L1s saw %v, want %v", r.log, want)
	}
	if n := len(r.xg.invResps); n != 1 || r.xg.invResps[0].Type != coherence.ADirtyWB || r.xg.invResps[0].Data[0] != 0xCD {
		t.Fatalf("guard got %v, want one A:DirtyWB carrying the owner's data", r.xg.invResps)
	}
	if getsAtAnswer != 1 || r.xg.gets != 2 {
		t.Fatalf("guard had seen %d Gets when the Invalidate was answered and %d in all, want 1 and 2: the queued request overtook it",
			getsAtAnswer, r.xg.gets)
	}
	if n := r.l2.Outstanding(); n != 0 {
		t.Fatalf("%d transactions outstanding at the shared L2", n)
	}
}
