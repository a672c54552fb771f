package network

import (
	"reflect"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/sim"
)

// obsInactiveBus returns a non-nil bus that Active() rejects (no sink).
func obsInactiveBus() *obs.Bus { return obs.NewBus(nil) }

// nop is a do-nothing endpoint for allocation accounting: any work in
// Recv would be charged to the fabric's budget.
type nop struct{ id coherence.NodeID }

func (n *nop) ID() coherence.NodeID { return n.id }
func (n *nop) Name() string         { return "nop" }
func (n *nop) Recv(*coherence.Msg)  {}

// TestFabricSendAllocFree pins the hot-path budget: with no interceptor
// and no active bus, a steady-state Send (including engine scheduling and
// delivery) performs zero allocations, on one channel and on a fabric
// with a machine's worth of channels once each has been opened. Any
// regression — a reintroduced delivery closure, map-based stats, eager
// trace-event construction, a channel lookup that allocates — fails this
// test.
func TestFabricSendAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	for _, build := range []func(*Fabric) []*coherence.Msg{oneChannel, machineFabric} {
		eng := sim.NewEngine()
		f := NewFabric(eng, 1, Config{Latency: 2, Ordered: true})
		msgs := build(f)
		// Warm-up: open the channels, fill the delivery records, and grow
		// the engine's queue to steady-state capacity.
		for i := 0; i < 64; i++ {
			for _, m := range msgs {
				f.Send(m)
			}
		}
		eng.RunUntilQuiet()
		allocs := testing.AllocsPerRun(200, func() {
			for i := 0; i < 16; i++ {
				for _, m := range msgs {
					f.Send(m)
				}
			}
			eng.RunUntilQuiet()
		})
		if allocs != 0 {
			t.Fatalf("Fabric.Send over %d channels allocated %v objects/run, want 0", len(msgs), allocs)
		}
	}
}

// oneChannel registers nodes 1 and 2 on f and returns a message for 1->2.
func oneChannel(f *Fabric) []*coherence.Msg {
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	return []*coherence.Msg{{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2}}
}

// machineIDs is the node-id layout config.Build gives a machine with two
// CPUs and two accelerator cores: the host directory or L2 (1), CPU caches
// (10-11), guards (40-41), the shared accelerator L2 (60), CPU sequencers
// (100-101), accelerator caches (200-201) and their sequencers (300-301).
var machineIDs = []coherence.NodeID{1, 10, 11, 40, 41, 60, 100, 101, 200, 201, 300, 301}

// machineFabric registers machineIDs on f and returns one message for
// each of 48 channels over them: every node to the next four in the
// list, wrapping.
func machineFabric(f *Fabric) []*coherence.Msg {
	var msgs []*coherence.Msg
	for i, src := range machineIDs {
		f.Register(&nop{id: src})
		for d := 1; d <= 4; d++ {
			dst := machineIDs[(i+d)%len(machineIDs)]
			msgs = append(msgs, &coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: src, Dst: dst})
		}
	}
	return msgs
}

// TestFabricSendAllocFreeInactiveBus extends the budget to the trace
// fast path: a bus with no sink (and one with a latched error) must not
// cost event construction.
func TestFabricSendAllocFreeInactiveBus(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 1})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	f.Bus = obsInactiveBus()
	m := &coherence.Msg{Type: coherence.AGetM, Addr: 0x2000, Src: 1, Dst: 2,
		Requestor: 7, Acks: 3} // fields MsgEvent would render into a payload
	for i := 0; i < 64; i++ {
		f.Send(m)
	}
	eng.RunUntilQuiet()
	allocs := testing.AllocsPerRun(200, func() {
		f.Send(m)
		eng.RunUntilQuiet()
	})
	if allocs != 0 {
		t.Fatalf("Send with inactive bus allocated %v objects/run, want 0", allocs)
	}
}

// TestDeliveryRecordPooled checks the free list actually recycles: a
// long sequential message stream must settle on a handful of records
// (one per concurrently in-flight delivery), not one per message.
func TestDeliveryRecordPooled(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 3, Ordered: true})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	m := &coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2}
	for round := 0; round < 50; round++ {
		for i := 0; i < 4; i++ {
			f.Send(m)
		}
		eng.RunUntilQuiet()
	}
	n := 0
	for r := f.freeRec; r != nil; r = r.next {
		n++
		if r.m != nil || r.ch != nil {
			t.Fatal("pooled record still pins delivery state")
		}
	}
	if n == 0 || n > 4 {
		t.Fatalf("free list holds %d records after 200 sequential sends, want 1..4", n)
	}
}

// TestInvalidMsgTypeClamped checks forged message types (a fuzzer
// inventing values outside the defined space) land in the MsgInvalid
// accounting bucket instead of crashing the stats.
func TestInvalidMsgTypeClamped(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 1})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	f.Send(&coherence.Msg{Type: coherence.MsgType(200), Src: 1, Dst: 2})
	f.Send(&coherence.Msg{Type: coherence.MsgType(-3), Src: 1, Dst: 2})
	eng.RunUntilQuiet()
	s := f.StatsFor(1, 2)
	if s.Msgs != 2 || s.MsgsByType[coherence.MsgInvalid] != 2 {
		t.Fatalf("forged types not clamped: %+v", s)
	}
}

// TestManyTypeChannelStats: a channel keeps its per-type counts in a short
// first-seen list sized for a protocol pair's handful of types; a fuzzer's
// channel, which carries the whole vocabulary and forged types outside it,
// must report exactly what per-type arrays indexed by (clamped) MsgType
// would — and, once it has seen a type, count it without allocating.
func TestManyTypeChannelStats(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 1})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	var wantMsgs, wantBytes [coherence.NumMsgTypes]uint64
	var total uint64
	send := func(ty coherence.MsgType, data *mem.Block) {
		m := &coherence.Msg{Type: ty, Src: 1, Dst: 2, Data: data}
		slot := ty
		if slot < 0 || int(slot) >= coherence.NumMsgTypes {
			slot = coherence.MsgInvalid
		}
		wantMsgs[slot]++
		wantBytes[slot] += uint64(m.Bytes())
		total += uint64(m.Bytes())
		f.Send(m)
	}
	// Every defined type in descending order (so first-seen order is not
	// type order), a varying number of times, data on every third; forged
	// types between them.
	for ty := coherence.MsgType(coherence.NumMsgTypes - 1); ty > coherence.MsgInvalid; ty-- {
		for i := 0; i <= int(ty)%3; i++ {
			var data *mem.Block
			if int(ty)%3 == 0 {
				data = mem.Zero()
			}
			send(ty, data)
		}
		if ty%7 == 0 {
			send(coherence.MsgType(200+int(ty)), nil)
			send(coherence.MsgType(-int(ty)), mem.Zero())
		}
	}
	eng.RunUntilQuiet()

	want := Stats{Bytes: total, MsgsByType: map[coherence.MsgType]uint64{}, BytesByType: map[coherence.MsgType]uint64{}}
	for ty, n := range wantMsgs {
		if n > 0 {
			want.Msgs += n
			want.MsgsByType[coherence.MsgType(ty)] = n
			want.BytesByType[coherence.MsgType(ty)] = wantBytes[ty]
		}
	}
	if len(want.MsgsByType) != coherence.NumMsgTypes {
		t.Fatalf("the test sent %d types, want all %d (MsgInvalid by forgery)", len(want.MsgsByType), coherence.NumMsgTypes)
	}
	if got := f.StatsFor(1, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("StatsFor = %+v\nwant %+v", got, want)
	}
	visited := 0
	f.VisitStats(func(src, dst coherence.NodeID, s *Stats) {
		visited++
		if src != 1 || dst != 2 || !reflect.DeepEqual(*s, want) {
			t.Fatalf("VisitStats(%d->%d) = %+v\nwant %+v", src, dst, *s, want)
		}
	})
	if visited != 1 || f.TotalBytes(nil) != total {
		t.Fatalf("visited %d channels, TotalBytes %d; want 1 and %d", visited, f.TotalBytes(nil), total)
	}

	if raceflag.Enabled {
		return // allocation accounting is perturbed by the race detector
	}
	last := &coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2} // the last type the channel met
	forged := &coherence.Msg{Type: coherence.MsgType(999), Src: 1, Dst: 2}
	if allocs := testing.AllocsPerRun(100, func() {
		f.Send(last)
		f.Send(forged)
		eng.RunUntilQuiet()
	}); allocs != 0 {
		t.Fatalf("a send of a type the channel has seen allocated %v objects, want 0", allocs)
	}
}

// BenchmarkFabricSend measures the closure-free hot path end to end:
// one Send plus its engine-scheduled delivery per op.
// TestFabricSendAllocFree fails if allocs/op leaves 0.
func BenchmarkFabricSend(b *testing.B) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 2, Ordered: true})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	m := &coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2}
	f.Send(m)
	eng.RunUntilQuiet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(m)
		eng.RunUntilQuiet()
	}
}

// BenchmarkFabricSendChannels is BenchmarkFabricSend spread over a
// machine's 48 channels in turn, so each Send finds a different channel
// than the one before: the channel lookup's cost shows, where one hot
// channel hides it.
func BenchmarkFabricSendChannels(b *testing.B) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 2, Ordered: true})
	msgs := machineFabric(f)
	for _, m := range msgs {
		f.Send(m)
	}
	eng.RunUntilQuiet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(msgs[i%len(msgs)])
		eng.RunUntilQuiet()
	}
}

// TestSendAfterAllocFree extends the budget to delayed sends: a
// steady-state SendAfter (with or without a bound fill hook) costs no
// allocation beyond the message the caller built.
func TestSendAfterAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 2, Ordered: true})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	m := &coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2}
	fill := func(m *coherence.Msg) { m.Acks++ } // bound once, like a component's hook
	for i := 0; i < 64; i++ {
		f.SendAfter(3, m, fill)
	}
	eng.RunUntilQuiet()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 8; i++ {
			f.SendAfter(3, m, nil)
			f.SendAfter(1, m, fill)
		}
		eng.RunUntilQuiet()
	})
	if allocs != 0 {
		t.Fatalf("Fabric.SendAfter allocated %v objects/run, want 0", allocs)
	}
	if f.DelayedSends() != 0 {
		t.Fatalf("DelayedSends = %d at quiesce, want 0", f.DelayedSends())
	}
}

// TestPooledSendAllocFree extends the budget to the messages themselves:
// in steady state a pooled message with its block — taken from the pool,
// sent, delivered, taken back — and a deferred handler call cost no
// allocation, where each used to be an object (two, with the block copy).
func TestPooledSendAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 2, Ordered: true})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	var line mem.Block
	handled := 0
	handler := func(*coherence.Msg) { handled++ } // bound once, like a component's
	round := func() {
		for i := 0; i < 16; i++ {
			line[0]++
			f.Send(f.Msg(coherence.Msg{Type: coherence.ADataM, Addr: 0x1000, Src: 1, Dst: 2, Data: &line}))
			f.SendAfter(3, f.Msg(coherence.Msg{Type: coherence.AWBAck, Addr: 0x1000, Src: 1, Dst: 2}), nil)
			f.CallAfter(2, handler, f.Msg(coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 2, Dst: 1}))
		}
		eng.RunUntilQuiet()
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("a round of pooled sends allocated %v objects, want 0", allocs)
	}
	if st := f.Stats(); st.MsgsOut != 0 || st.MsgsMade > 48 {
		t.Fatalf("pool after the rounds: %+v", st)
	}
	if handled != 16*202 || f.DelayedSends() != 0 {
		t.Fatalf("handled %d deferred calls, %d still delayed", handled, f.DelayedSends())
	}
}
