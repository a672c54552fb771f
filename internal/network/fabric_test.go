package network

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// sink records received messages with arrival times.
type sink struct {
	id   coherence.NodeID
	eng  *sim.Engine
	got  []*coherence.Msg
	when []sim.Time
}

func (s *sink) ID() coherence.NodeID { return s.id }
func (s *sink) Name() string         { return "sink" }
func (s *sink) Recv(m *coherence.Msg) {
	s.got = append(s.got, m)
	s.when = append(s.when, s.eng.Now())
}

func setup(seed int64, cfg Config) (*sim.Engine, *Fabric, *sink, *sink) {
	eng := sim.NewEngine()
	f := NewFabric(eng, seed, cfg)
	a := &sink{id: 1, eng: eng}
	b := &sink{id: 2, eng: eng}
	f.Register(a)
	f.Register(b)
	return eng, f, a, b
}

func TestFixedLatencyDelivery(t *testing.T) {
	eng, f, _, b := setup(1, Config{Latency: 10})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	eng.RunUntilQuiet()
	if len(b.got) != 1 || b.when[0] != 10 {
		t.Fatalf("got %d msgs, t=%v; want 1 at t=10", len(b.got), b.when)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{})
	f.Register(&sink{id: 1, eng: eng})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	f.Register(&sink{id: 1, eng: eng})
}

func TestUnknownDestinationDropped(t *testing.T) {
	eng, f, _, _ := setup(1, Config{})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 99})
	eng.RunUntilQuiet()
	if f.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", f.Dropped)
	}
}

// TestRegisterAfterDropDelivers: a drop leaves nothing behind in the
// channel table, so a node registered after a send to its id was dropped
// receives the next one — for an ordinary id and for ids a fuzzer forges.
func TestRegisterAfterDropDelivers(t *testing.T) {
	for _, id := range []coherence.NodeID{99, coherence.NodeNone, 2 + 1<<32, math.MinInt} {
		eng, f, _, _ := setup(1, Config{Latency: 3})
		f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: id})
		eng.RunUntilQuiet()
		late := &sink{id: id, eng: eng}
		f.Register(late)
		f.Send(&coherence.Msg{Type: coherence.AGetM, Src: 1, Dst: id})
		eng.RunUntilQuiet()
		if f.Dropped != 1 || len(late.got) != 1 || late.got[0].Type != coherence.AGetM {
			t.Fatalf("node %d: Dropped = %d, late node got %v; want 1 drop and the A:GetM delivered", id, f.Dropped, late.got)
		}
		if st := f.StatsFor(1, id); st.Msgs != 1 {
			t.Fatalf("channel 1>%d counted %d msgs, want 1: a dropped send is not traffic", id, st.Msgs)
		}
	}
}

// TestChannelKeyFullWidth: a channel is keyed by both ids at full width.
// Ids that agree in their low 32 bits are different nodes: a send to an
// unregistered one is dropped, not delivered to its low-word twin; a
// source that shares a twin's low word has a channel of its own; and once
// registered, the wide id receives its own traffic.
func TestChannelKeyFullWidth(t *testing.T) {
	const wide = coherence.NodeID(2 + 1<<32) // low word 2
	eng, f, _, b := setup(1, Config{Latency: 1})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: wide})
	f.Send(&coherence.Msg{Type: coherence.AGetM, Src: 1 + 1<<32, Dst: 2})
	eng.RunUntilQuiet()
	if f.Dropped != 1 || len(b.got) != 2 {
		t.Fatalf("Dropped = %d, node 2 got %d msgs; want the send to %d dropped and 2 delivered to node 2",
			f.Dropped, len(b.got), wide)
	}
	if st := f.StatsFor(1, 2); st.Msgs != 1 || st.MsgsByType[coherence.AGetS] != 1 {
		t.Fatalf("channel 1>2: %+v, want its one A:GetS", st)
	}
	if st := f.StatsFor(1+1<<32, 2); st.Msgs != 1 || st.MsgsByType[coherence.AGetM] != 1 {
		t.Fatalf("channel %d>2: %+v, want its one A:GetM", 1+1<<32, st)
	}
	twin := &sink{id: wide, eng: eng}
	f.Register(twin)
	f.Send(&coherence.Msg{Type: coherence.AGetM, Src: 1, Dst: wide})
	eng.RunUntilQuiet()
	if len(twin.got) != 1 || len(b.got) != 2 || f.StatsFor(1, wide).Msgs != 1 || f.StatsFor(1, 2).Msgs != 1 {
		t.Fatalf("node %d got %d msgs, node 2 %d; want 1 and still 2", wide, len(twin.got), len(b.got))
	}
}

// TestChannelTableHostileIDs drives the channel table with the ids a
// fuzzer can forge — NodeNone and other negatives, ids at and past 2^32,
// the ends of the int range — over 500 distinct pairs, enough to grow the
// table several times. After each pair's sends, StatsFor reports every
// used pair's traffic exactly and nothing for the pairs still unused;
// sends to ids nobody registered are dropped and open no channel; every
// registered node received exactly its sends; and VisitStats walks the
// channels in the order of their first sends.
func TestChannelTableHostileIDs(t *testing.T) {
	var ids []coherence.NodeID
	unknown := map[coherence.NodeID]bool{}
	for _, hi := range []coherence.NodeID{0, 1 << 32, -1 << 32, 1 << 62} {
		for lo := coherence.NodeID(-2); lo <= 3; lo++ {
			ids = append(ids, hi+lo)
		}
		unknown[hi+3] = true
	}
	ids = append(ids, math.MaxInt, math.MinInt)
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 2})
	nodes := map[coherence.NodeID]*sink{}
	for _, id := range ids {
		if !unknown[id] {
			nodes[id] = &sink{id: id, eng: eng}
			f.Register(nodes[id])
		}
	}
	var pairs []chanKey
	for _, src := range ids {
		for _, dst := range ids {
			pairs = append(pairs, chanKey{src, dst})
		}
	}
	rand.New(rand.NewSource(5)).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	pairs = pairs[:500]

	sent := map[chanKey]uint64{}
	recv := map[coherence.NodeID]int{}
	var order []chanKey
	var dropped uint64
	for i, k := range pairs {
		n := uint64(i%3 + 1)
		for j := uint64(0); j < n; j++ {
			f.Send(&coherence.Msg{Type: coherence.AGetS, Src: k.src, Dst: k.dst})
		}
		eng.RunUntilQuiet()
		if unknown[k.dst] {
			dropped += n
		} else {
			sent[k] = n
			recv[k.dst] += int(n)
			order = append(order, k)
		}
		if f.Dropped != dropped {
			t.Fatalf("after pair %d (%d>%d): Dropped = %d, want %d", i, k.src, k.dst, f.Dropped, dropped)
		}
		for _, p := range pairs {
			if st := f.StatsFor(p.src, p.dst); st.Msgs != sent[p] || st.Bytes != sent[p]*coherence.ControlBytes {
				t.Fatalf("after pair %d (%d>%d): StatsFor(%d, %d) = %d msgs / %d B, want %d msgs",
					i, k.src, k.dst, p.src, p.dst, st.Msgs, st.Bytes, sent[p])
			}
		}
	}
	want := minChanSlots
	for 2*len(order) > want {
		want *= 2
	}
	if len(f.chans.slots) != want || want < 32*minChanSlots {
		t.Fatalf("%d slots for %d channels, want %d after at least five growths", len(f.chans.slots), len(order), want)
	}
	for id, n := range nodes {
		if len(n.got) != recv[id] {
			t.Fatalf("node %d received %d msgs, want %d", id, len(n.got), recv[id])
		}
	}
	var visited []chanKey
	f.VisitStats(func(src, dst coherence.NodeID, s *Stats) { visited = append(visited, chanKey{src, dst}) })
	if !reflect.DeepEqual(visited, order) {
		t.Fatalf("VisitStats order differs from first-send order:\n got %v\nwant %v", visited, order)
	}
	var total uint64
	for _, n := range sent {
		total += n * coherence.ControlBytes
	}
	if f.TotalBytes(nil) != total {
		t.Fatalf("TotalBytes = %d, want %d", f.TotalBytes(nil), total)
	}
}

func TestOrderedChannelFIFO(t *testing.T) {
	// With heavy jitter, an ordered channel must still deliver in send
	// order; an unordered channel with the same seed reorders.
	run := func(ordered bool) []int {
		eng, f, _, b := setup(42, Config{Latency: 5, Jitter: 50, Ordered: ordered})
		for i := 0; i < 64; i++ {
			f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2, Acks: int32(i)})
		}
		eng.RunUntilQuiet()
		out := make([]int, len(b.got))
		for i, m := range b.got {
			out[i] = int(m.Acks)
		}
		return out
	}
	inOrder := func(xs []int) bool {
		for i := 1; i < len(xs); i++ {
			if xs[i] < xs[i-1] {
				return false
			}
		}
		return true
	}
	if got := run(true); !inOrder(got) {
		t.Fatalf("ordered channel reordered: %v", got)
	}
	if got := run(false); inOrder(got) {
		t.Fatal("unordered channel with jitter 50 never reordered (suspicious seed)")
	}
}

// Property: ordered channels preserve FIFO for any seed and any jitter.
func TestPropertyOrderedFIFO(t *testing.T) {
	f := func(seed int64, jitter uint8, n uint8) bool {
		eng, fab, _, b := setup(seed, Config{Latency: 1, Jitter: sim.Time(jitter), Ordered: true})
		for i := 0; i < int(n); i++ {
			fab.Send(&coherence.Msg{Type: coherence.AGetM, Src: 1, Dst: 2, Acks: int32(i)})
		}
		eng.RunUntilQuiet()
		if len(b.got) != int(n) {
			return false
		}
		for i, m := range b.got {
			if int(m.Acks) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteOverride(t *testing.T) {
	eng, f, a, b := setup(1, Config{Latency: 100})
	f.SetRoutePair(1, 2, Config{Latency: 3})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 2, Dst: 1})
	eng.RunUntilQuiet()
	if b.when[0] != 3 || a.when[0] != 3 {
		t.Fatalf("override latencies: %v %v, want 3", b.when, a.when)
	}
}

func TestTrafficAccounting(t *testing.T) {
	eng, f, _, _ := setup(1, Config{Latency: 1})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	f.Send(&coherence.Msg{Type: coherence.ADataM, Src: 1, Dst: 2, Data: mem.Zero()})
	eng.RunUntilQuiet()
	s := f.StatsFor(1, 2)
	if s.Msgs != 2 {
		t.Fatalf("Msgs = %d", s.Msgs)
	}
	wantBytes := uint64(coherence.ControlBytes + coherence.ControlBytes + coherence.DataBytes)
	if s.Bytes != wantBytes {
		t.Fatalf("Bytes = %d, want %d", s.Bytes, wantBytes)
	}
	if s.MsgsByType[coherence.AGetS] != 1 || s.BytesByType[coherence.ADataM] != 72 {
		t.Fatalf("per-type stats wrong: %+v", s)
	}
	if f.TotalBytes(nil) != wantBytes {
		t.Fatalf("TotalBytes = %d", f.TotalBytes(nil))
	}
	if f.TotalBytes(func(src, dst coherence.NodeID) bool { return src == 2 }) != 0 {
		t.Fatal("filtered TotalBytes should be 0")
	}
	if got := f.StatsFor(2, 1); got.Msgs != 0 {
		t.Fatal("reverse channel should be empty")
	}
}

func TestVisitStats(t *testing.T) {
	eng, f, _, _ := setup(1, Config{Latency: 1})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	eng.RunUntilQuiet()
	n := 0
	f.VisitStats(func(src, dst coherence.NodeID, s *Stats) { n++ })
	if n != 1 {
		t.Fatalf("VisitStats visited %d channels, want 1", n)
	}
}

func TestBusAttachedToFabric(t *testing.T) {
	eng, f, _, _ := setup(1, Config{Latency: 1})
	ring := obs.NewRing(16)
	f.Bus = obs.NewBus(ring)
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 99}) // dropped
	eng.RunUntilQuiet()
	evs := ring.Events()
	if len(evs) != 3 { // send + recv + drop
		t.Fatalf("bus captured %d events, want 3:\n%s", len(evs), ring.Dump())
	}
	kinds := map[obs.Kind]int{}
	for _, e := range evs {
		kinds[e.Kind]++
	}
	if kinds[obs.KindSend] != 1 || kinds[obs.KindRecv] != 1 || kinds[obs.KindDrop] != 1 {
		t.Fatalf("event kinds wrong: %v", kinds)
	}
	for _, e := range evs {
		if e.Kind == obs.KindRecv && (e.Tick != 1 || e.Component != "sink") {
			t.Fatalf("recv event tick=%d comp=%q, want 1/sink", e.Tick, e.Component)
		}
	}
}

func TestFabricMetrics(t *testing.T) {
	eng, f, _, _ := setup(1, Config{Latency: 1})
	r := obs.NewRegistry()
	f.AttachObs(r)
	for i := 0; i < 3; i++ {
		f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	}
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 99}) // dropped
	if got := r.Gauge("net.inflight").Value(); got != 3 {
		t.Fatalf("inflight before delivery = %d, want 3", got)
	}
	eng.RunUntilQuiet()
	if got := r.Counter("net.msgs").Value(); got != 3 {
		t.Fatalf("net.msgs = %d, want 3", got)
	}
	if got := r.Counter("net.dropped").Value(); got != 1 {
		t.Fatalf("net.dropped = %d, want 1", got)
	}
	g := r.Gauge("net.inflight")
	if g.Value() != 0 || g.Max() != 3 {
		t.Fatalf("inflight value=%d max=%d, want 0/3", g.Value(), g.Max())
	}
	if h := r.Histogram("net.channel.depth").Counts(); h.N() != 3 || h.Max() != 3 {
		t.Fatalf("depth histogram n=%d max=%f, want 3/3", h.N(), h.Max())
	}
	wantBytes := uint64(3 * coherence.ControlBytes)
	if got := r.Counter("net.bytes").Value(); got != wantBytes {
		t.Fatalf("net.bytes = %d, want %d", got, wantBytes)
	}
}

// arrival is one delivery as a recorder saw it.
type arrival struct {
	at   sim.Time
	tag  uint64
	acks int
}

type arrivalLog struct {
	id  coherence.NodeID
	eng *sim.Engine
	got []arrival
}

func (a *arrivalLog) ID() coherence.NodeID { return a.id }
func (a *arrivalLog) Name() string         { return "arrivals" }
func (a *arrivalLog) Recv(m *coherence.Msg) {
	a.got = append(a.got, arrival{a.eng.Now(), m.Tag, int(m.Acks)})
}

// SendAfter is eng.Schedule(d, func() { fab.Send(m) }) without the
// closure: on a jittered fabric, where the order of Send calls decides
// which delivery gets which random draw, a mix of immediate and delayed
// sends must arrive exactly as it does with the closure form, and the
// fill hook must see the state at the send tick, not at the call.
func TestSendAfterMatchesScheduledSend(t *testing.T) {
	run := func(useSendAfter bool) ([]arrival, uint64) {
		eng := sim.NewEngine()
		f := NewFabric(eng, 42, Config{Latency: 3, Jitter: 5})
		log := &arrivalLog{id: 2, eng: eng}
		f.Register(&nop{id: 1})
		f.Register(log)
		epoch := 0
		fill := func(m *coherence.Msg) { m.Acks = int32(epoch) }
		for i := uint64(0); i < 40; i++ {
			m := &coherence.Msg{Type: coherence.AGetS, Addr: 0x40, Src: 1, Dst: 2, Tag: i}
			switch delay := sim.Time(i % 4); {
			case delay == 0:
				f.Send(m)
			case useSendAfter:
				f.SendAfter(delay, m, fill)
			default:
				eng.Schedule(delay, func() { fill(m); f.Send(m) })
			}
		}
		eng.Schedule(2, func() { epoch = 7 }) // after the delay-2 sends queued above, before delay 3
		eng.RunUntilQuiet()
		return log.got, eng.Executed
	}
	want, wantEvents := run(false)
	got, gotEvents := run(true)
	if len(got) != len(want) || gotEvents != wantEvents {
		t.Fatalf("SendAfter: %d arrivals in %d events, closure form: %d in %d",
			len(got), gotEvents, len(want), wantEvents)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival %d: SendAfter %+v, closure form %+v", i, got[i], want[i])
		}
	}
}

// keeper keeps every message it receives, like a controller queueing
// requests, and gives them back on demand.
type keeper struct {
	id   coherence.NodeID
	kept []*coherence.Msg
}

func (k *keeper) ID() coherence.NodeID { return k.id }
func (k *keeper) Name() string         { return "keeper" }
func (k *keeper) Recv(m *coherence.Msg) {
	m.Keep()
	k.kept = append(k.kept, m)
}

// A message the fabric did not hand out — anything built with
// &coherence.Msg{}, as the fuzzing and adversarial accelerators and most
// tests do — is never put on the free list, however it travels.
func TestForgedMessageNeverPooled(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 1})
	k := &keeper{id: 2}
	f.Register(&nop{id: 1})
	f.Register(k)
	forged := &coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2}
	f.Send(forged)
	f.SendAfter(2, forged, nil)
	f.CallAfter(3, func(*coherence.Msg) {}, forged)
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 99}) // dropped: no such node
	eng.RunUntilQuiet()
	for _, m := range k.kept {
		f.Release(m)
	}
	if st := f.Stats(); st.MsgsOut != 0 || st.MsgsMade != 0 {
		t.Fatalf("forged traffic touched the pool: %+v", st)
	}
	if m := f.Msg(coherence.Msg{Type: coherence.HAck}); m == forged {
		t.Fatal("forged message handed out by the pool")
	} else if f.Stats().MsgsMade != 1 {
		t.Fatal("the free list was not empty after forged traffic")
	}
}

// The lifetime rule end to end: a pooled message a receiver keeps stays
// out until released; one sent to an unknown node, or not kept, goes back.
func TestPooledMessageLifetime(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 1})
	k := &keeper{id: 2}
	f.Register(&nop{id: 1})
	f.Register(k)
	f.Send(f.Msg(coherence.Msg{Type: coherence.HGetS, Src: 1, Dst: 2}))  // kept
	f.Send(f.Msg(coherence.Msg{Type: coherence.HAck, Src: 2, Dst: 1}))   // delivered, not kept
	f.Send(f.Msg(coherence.Msg{Type: coherence.HAck, Src: 2, Dst: 404})) // dropped
	eng.RunUntilQuiet()
	if st := f.Stats(); st.MsgsOut != 1 || f.Dropped != 1 {
		t.Fatalf("after delivery: %+v, %d dropped", st, f.Dropped)
	}
	if len(k.kept) != 1 || k.kept[0].Type != coherence.HGetS {
		t.Fatalf("kept message disturbed: %v", k.kept)
	}
	f.Release(k.kept[0])
	if st := f.Stats(); st.MsgsOut != 0 {
		t.Fatalf("after release: %+v", st)
	}
}
