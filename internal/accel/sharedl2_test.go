package accel

import (
	"fmt"
	"reflect"
	"slices"
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
	if u := r.l2.Cov.Unexpected; len(u) != 0 {
		t.Fatalf("the shared L2 visited undeclared cells %v", u)
	}
}

// visits requires cell, "state/event", of the shared L2's table visited
// want times.
func (r *sl2Rig) visits(t *testing.T, cell string, want uint64) {
	t.Helper()
	if n := r.l2.Cov.Snapshot()[cell]; n != want {
		t.Fatalf("%s visited %d times, want %d", cell, n, want)
	}
}

// The rig's L2 has 2 sets of 2 ways: lines 128 bytes apart share a set.
const (
	sl2Line1 = sl2Line0 + 128
	sl2Line2 = sl2Line0 + 256
)

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

// TestSharedL2RulesMatchProtocol reads the shared L2's protocol off the
// rows it runs: a grant lands only on a line with a fetch open, a
// writeback closes only after its line has left the cache, and the
// guard's Invalidate has a cell in every state a line can be in.
func TestSharedL2RulesMatchProtocol(t *testing.T) {
	states := sharedL2Table.States()
	for k := range states {
		fetching := k == sl2Busy+int(AI) || k == sl2Busy+int(AS)
		for _, ev := range sl2Grants {
			if do := sl2Rules.At(k, ev); fetching != (do != nil) || do != nil && *do != takeGrant {
				t.Errorf("%s/%s = %v, want a grant cell exactly at I+busy and S+busy", states[k], sharedL2Table.Events()[ev], do)
			}
		}
		if do := sl2Rules.At(k, sl2WBEnds[0]); (k == sl2NP) != (do != nil) {
			t.Errorf("%s/A:WBAck = %v, want a cell at NP alone", states[k], do)
		}
		// Idle I is no line's state: a grant always sets the level.
		if do := sl2Rules.At(k, sl2Inv[0]); (k != int(AI)) != (do != nil) {
			t.Errorf("%s/A:Inv = %v, want a cell in every state but idle I", states[k], do)
		}
	}
	for _, r := range sl2Rules.Rows {
		if r.St == int(AI) {
			t.Errorf("idle I has a row: %+v", r)
		}
	}
}

// A miss into a set whose ways hold no inner copy evicts the LRU line: its
// data goes back to the guard in a Put, and the guard's WBAck closes the
// writeback after the line has left the cache.
func TestSharedL2EvictsVictimToGuard(t *testing.T) {
	r := newSL2Rig(21)
	l1 := r.l1s[21]
	dirty := mem.Block{0: 0xAB}
	l1.send(coherence.XGetM, sl2Line0, nil)
	r.quiesce(t)
	l1.send(coherence.XPutM, sl2Line0, &dirty)
	l1.send(coherence.XGetS, sl2Line1, nil)
	r.quiesce(t)
	l1.send(coherence.XPutS, sl2Line1, nil)
	r.quiesce(t)

	l1.send(coherence.XGetS, sl2Line2, nil)
	r.quiesce(t)
	if r.l2.cache.Peek(sl2Line0) != nil || r.l2.cache.Peek(sl2Line2) == nil {
		t.Fatal("the miss did not replace the LRU line")
	}
	if r.xg.puts != 1 || r.xg.mem.Read(sl2Line0)[0] != 0xAB {
		t.Fatalf("guard took %d Puts holding %#x, want one with the written data", r.xg.puts, r.xg.mem.Read(sl2Line0)[0])
	}
	r.visits(t, "NP/A:WBAck", 1)
}

// A miss into a set whose every way has inner copies recalls the LRU line
// from its inner L1s, writes it back to the guard, and replays the
// stalled miss into the freed way.
func TestSharedL2RecallsForStalledMiss(t *testing.T) {
	r := newSL2Rig(21)
	l1 := r.l1s[21]
	l1.send(coherence.XGetS, sl2Line0, nil)
	r.quiesce(t)
	l1.send(coherence.XGetS, sl2Line1, nil)
	r.quiesce(t)
	r.log = nil

	l1.send(coherence.XGetS, sl2Line2, nil)
	r.quiesce(t)
	if want := []string{"21 X:Inv", "21 X:DataS"}; !reflect.DeepEqual(r.log, want) {
		t.Fatalf("inner L1 saw %v, want the recall of the LRU line, then the stalled miss's data", r.log)
	}
	if r.l2.cache.Peek(sl2Line0) != nil || r.l2.cache.Peek(sl2Line2) == nil {
		t.Fatal("the recall did not free the LRU line's way for the miss")
	}
	if r.xg.putSs != 1 {
		t.Fatalf("guard took %d PutS, want the recalled line's", r.xg.putSs)
	}
	r.visits(t, "S+busy/X:InvAck", 1)
	r.visits(t, "NP/X:GetS", 4) // three misses, one replayed
	r.visits(t, "NP/A:WBAck", 1)
}

// A quarantined guard nacks whatever it is sent: a nacked fetch or
// upgrade abandons its line, and a nacked writeback closes as if acked.
// The inner requestor gets no answer; the device is about to be reset.
func TestSharedL2TakesNacks(t *testing.T) {
	r := newSL2Rig(21)
	l1 := r.l1s[21]
	for _, a := range []mem.Addr{sl2Line0, sl2Line1} {
		l1.send(coherence.XGetS, a, nil)
		r.quiesce(t)
		l1.send(coherence.XPutS, a, nil)
		r.quiesce(t)
	}

	r.xg.nack = true
	r.log = nil
	l1.send(coherence.XGetS, sl2Line2, nil) // evicts line 0, then fetches
	r.quiesce(t)
	r.visits(t, "NP/A:Nack", 1)
	r.visits(t, "I+busy/A:Nack", 1)
	l1.send(coherence.XGetM, sl2Line1, nil) // an upgrade of the S grant
	r.quiesce(t)
	r.visits(t, "S+busy/A:Nack", 1)
	for _, a := range []mem.Addr{sl2Line0, sl2Line1, sl2Line2} {
		if r.l2.cache.Peek(a) != nil {
			t.Errorf("line %v still in the shared L2 after its nack", a)
		}
	}
	if len(r.log) != 0 {
		t.Fatalf("inner L1 was answered %v under a nacking guard", r.log)
	}
}

// A miss that finds every way of its set in a transaction waits for a line
// to go idle, then replays: nothing else would wake it.
func TestSharedL2MissIntoBusySetReplays(t *testing.T) {
	r := newSL2Rig(21, 22, 23)
	r.l1s[21].send(coherence.XGetS, sl2Line0, nil)
	r.l1s[22].send(coherence.XGetS, sl2Line1, nil)
	r.l1s[23].send(coherence.XGetS, sl2Line2, nil) // both ways are fetching
	r.quiesce(t)
	if want := "23 X:DataS"; !slices.Contains(r.log, want) {
		t.Fatalf("inner L1s saw %v, want %s among them", r.log, want)
	}
}

// A queued Get that stalls for a way when its turn comes replays as the
// head of its line's queue, not behind the requests queued after it: no
// one else would wake that queue, since its line is not in the cache.
func TestSharedL2StalledQueueHeadKeepsItsPlace(t *testing.T) {
	r := newSL2Rig(21, 22, 23)
	for _, a := range []mem.Addr{sl2Line0, sl2Line1} {
		r.l1s[21].send(coherence.XGetS, a, nil)
		r.quiesce(t)
	}
	r.l1s[21].send(coherence.XPutS, sl2Line0, nil) // line 1 keeps its sharer
	r.quiesce(t)
	r.log = nil

	// The miss on line 2 evicts line 0; the Gets for line 0 queue behind
	// that writeback, and the first, woken by its WBAck, finds line 2
	// fetching and line 1 shared, so it stalls behind line 1's recall.
	r.l1s[21].send(coherence.XGetS, sl2Line2, nil)
	r.eng.Schedule(1, func() {
		r.l1s[22].send(coherence.XGetS, sl2Line0, nil)
		r.l1s[23].send(coherence.XGetS, sl2Line0, nil)
	})
	r.quiesce(t)
	for _, want := range []string{"22 X:DataS", "23 X:DataS"} {
		if !slices.Contains(r.log, want) {
			t.Fatalf("inner L1s saw %v, want %s among them", r.log, want)
		}
	}
	// Line 2 missing, line 0 arriving twice and woken twice, and once
	// replayed, on top of the two misses that filled the set.
	r.visits(t, "NP/X:GetS", 8)
}
