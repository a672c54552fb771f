package seq

import (
	"reflect"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// echoCache is a trivial memory-backed cache that answers every request
// after a fixed delay with a message of its own, recording (by copy: the
// request is the cache's only until it replies) the order requests arrived.
type echoCache struct {
	id    coherence.NodeID
	eng   *sim.Engine
	fab   *network.Fabric
	mem   *mem.Memory
	delay sim.Time
	seen  []coherence.Msg
}

func (c *echoCache) ID() coherence.NodeID { return c.id }
func (c *echoCache) Name() string         { return "echo" }
func (c *echoCache) Recv(m *coherence.Msg) {
	c.seen = append(c.seen, *m)
	c.eng.Schedule(c.delay, func() {
		resp := &coherence.Msg{Addr: m.Addr, Src: c.id, Dst: m.Src, Tag: m.Tag}
		switch m.Type {
		case coherence.ReqLoad:
			resp.Type = coherence.RespLoad
			resp.Val = c.mem.LoadByte(m.Addr)
		case coherence.ReqStore:
			resp.Type = coherence.RespStore
			c.mem.StoreByte(m.Addr, m.Val)
		}
		c.fab.Send(resp)
	})
}

func rig(delay sim.Time) (*sim.Engine, *Sequencer, *echoCache) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 7, network.Config{Latency: 1})
	cache := &echoCache{id: 100, eng: eng, fab: fab, mem: mem.NewMemory(), delay: delay}
	fab.Register(cache)
	s := New(1, "seq0", eng, fab, 100)
	return eng, s, cache
}

func TestStoreThenLoad(t *testing.T) {
	eng, s, _ := rig(5)
	var got byte
	s.Store(0x1000, 42, nil)
	s.Load(0x1000, func(op *Op) { got = op.Result })
	eng.RunUntilQuiet()
	if got != 42 {
		t.Fatalf("loaded %d, want 42", got)
	}
	if s.Loads != 1 || s.Stores != 1 || s.Completed != 2 {
		t.Fatalf("counts: %d loads %d stores %d completed", s.Loads, s.Stores, s.Completed)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after quiesce", s.Outstanding())
	}
}

func TestPerLineSerialization(t *testing.T) {
	// Two ops to the same line must reach the cache strictly one at a
	// time; ops to a different line may overlap.
	eng, s, cache := rig(10)
	s.Store(0x2000, 1, nil)
	s.Store(0x2001, 2, nil) // same line: must wait
	s.Store(0x3000, 3, nil) // different line: concurrent
	eng.RunUntilQuiet()
	if len(cache.seen) != 3 {
		t.Fatalf("cache saw %d ops", len(cache.seen))
	}
	// Arrival order: 0x2000 and 0x3000 first (t=1), then 0x2001 later.
	if cache.seen[2].Addr != 0x2001 {
		t.Fatalf("same-line op did not wait: order %v %v %v",
			cache.seen[0].Addr, cache.seen[1].Addr, cache.seen[2].Addr)
	}
}

func TestProgramOrderPerLine(t *testing.T) {
	// Store A=1; Store A=2; Load A must observe 2.
	eng, s, _ := rig(3)
	var got byte
	s.Store(0x40, 1, nil)
	s.Store(0x40, 2, nil)
	s.Load(0x40, func(op *Op) { got = op.Result })
	eng.RunUntilQuiet()
	if got != 2 {
		t.Fatalf("load got %d, want 2 (program order violated)", got)
	}
}

func TestMaxOutstanding(t *testing.T) {
	eng, s, cache := rig(50)
	s.MaxOutstanding = 2
	for i := 0; i < 6; i++ {
		s.Store(mem.Addr(0x1000+i*0x40), byte(i), nil)
	}
	// After issue, only 2 should have reached the cache before any
	// completion (cache delay 50 >> link latency 1).
	eng.RunUntil(10)
	if len(cache.seen) != 2 {
		t.Fatalf("cache saw %d early ops, want 2", len(cache.seen))
	}
	eng.RunUntilQuiet()
	if s.Completed != 6 {
		t.Fatalf("completed %d, want 6", s.Completed)
	}
}

func TestLatencyAccounting(t *testing.T) {
	eng, s, _ := rig(8)
	s.Load(0x0, nil)
	eng.RunUntilQuiet()
	// 1 (req link) + 8 (cache) + 1 (resp link) = 10
	if s.AvgLatency() != 10 || s.MaxLatency != 10 {
		t.Fatalf("avg %v max %v, want 10", s.AvgLatency(), s.MaxLatency)
	}
	if s.Completed != 1 || s.TotalLatency != 10 {
		t.Fatalf("completed %d, total latency %d; want 1 and 10", s.Completed, s.TotalLatency)
	}
}

func TestOnQuiesce(t *testing.T) {
	eng, s, _ := rig(2)
	fired := 0
	s.OnQuiesce = func() { fired++ }
	s.Store(0x0, 1, nil)
	s.Store(0x40, 2, nil)
	eng.RunUntilQuiet()
	if fired != 1 {
		t.Fatalf("OnQuiesce fired %d times, want 1", fired)
	}
}

func TestUnknownTagPanics(t *testing.T) {
	eng, s, _ := rig(1)
	defer func() {
		if recover() == nil {
			t.Fatal("bogus completion did not panic")
		}
	}()
	_ = eng
	s.Recv(&coherence.Msg{Type: coherence.RespLoad, Tag: 999})
}

// parkingCache holds every request it receives while parked is set — the
// way a cache holds operations behind a busy line — and otherwise completes
// it in place one tick later; a load returns the low byte of its address.
type parkingCache struct {
	id     coherence.NodeID
	fab    *network.Fabric
	parked bool
	held   []*coherence.Msg
}

func (c *parkingCache) ID() coherence.NodeID { return c.id }
func (c *parkingCache) Name() string         { return "parking" }
func (c *parkingCache) Recv(m *coherence.Msg) {
	if c.parked {
		c.held = append(c.held, m)
		return
	}
	c.reply(m)
}

func (c *parkingCache) reply(m *coherence.Msg) {
	var val byte
	if m.Type == coherence.ReqLoad {
		val = byte(m.Addr)
	}
	c.fab.SendAfter(1, coherence.Reply(m, c.id, val), nil)
}

func (s *Sequencer) freeOps() int {
	n := 0
	for op := s.free; op != nil; op = op.next {
		n++
	}
	return n
}

// TestAbortDoesNotRecycleOpsTheCacheHolds is the regression test for the
// third ownership rule: an issued Op that Abort discards carries a message
// the cache still holds, so it must stay off the free list — while the
// queued ones go straight back — until its stale completion has arrived.
func TestAbortDoesNotRecycleOpsTheCacheHolds(t *testing.T) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 7, network.Config{Latency: 1, Ordered: true})
	cache := &parkingCache{id: 100, fab: fab, parked: true}
	fab.Register(cache)
	s := New(1, "seq0", eng, fab, 100)
	s.MaxOutstanding = 4

	never := func(*Op) { t.Error("an aborted operation completed") }
	line := func(i int) mem.Addr { return mem.Addr(0x8000 + i*mem.BlockBytes) }
	for i := 0; i < 4; i++ {
		s.Store(line(i), byte(10+i), never) // issued, then held by the cache
	}
	s.Load(line(0)+1, never) // these two would queue behind line 0,
	s.Load(line(0)+2, never) // but the issue limit is reached first
	s.Load(line(9), never)
	s.Load(line(9)+1, never)
	eng.RunUntilQuiet()
	if len(cache.held) != 4 || s.Outstanding() != 8 {
		t.Fatalf("cache holds %d requests, %d outstanding; want 4 and 8", len(cache.held), s.Outstanding())
	}
	type wire struct {
		ty   coherence.MsgType
		addr mem.Addr
		val  byte
		tag  uint64
	}
	snapshot := func() []wire {
		var out []wire
		for _, m := range cache.held {
			out = append(out, wire{m.Type, m.Addr, m.Val, m.Tag})
		}
		return out
	}
	before := snapshot()

	s.Abort()
	if s.Aborted != 8 || s.Outstanding() != 0 {
		t.Fatalf("Aborted=%d Outstanding=%d after Abort, want 8 and 0", s.Aborted, s.Outstanding())
	}
	if got := s.freeOps(); got != 4 {
		t.Fatalf("%d Ops on the free list after Abort, want the 4 that were only queued", got)
	}

	// New work recycles every free Op and more, with the stale requests
	// still parked. Each completion must see its own operation intact.
	cache.parked = false
	completed := 0
	issue := func(n int) {
		for i := 0; i < n; i++ {
			a := line(i%6) + mem.Addr(i%5)
			if i%2 == 0 {
				v := byte(100 + i)
				s.Store(a, v, func(op *Op) {
					completed++
					if op.Addr != a || !op.Store || op.Val != v {
						t.Errorf("store %v<-%d completed as %+v", a, v, op)
					}
				})
			} else {
				s.Load(a, func(op *Op) {
					completed++
					if op.Addr != a || op.Store || op.Result != byte(a) {
						t.Errorf("load %v completed as %+v, want result %d", a, op, byte(a))
					}
				})
			}
		}
	}
	issue(12)
	eng.RunUntilQuiet()
	if completed != 12 || s.Completed != 12 {
		t.Fatalf("%d callbacks, Completed=%d; want 12 and 12", completed, s.Completed)
	}
	if after := snapshot(); !reflect.DeepEqual(before, after) {
		t.Fatalf("requests the cache holds were disturbed by recycling:\n before %+v\n after  %+v", before, after)
	}

	// The cache finally answers the stale requests, in place: dropped
	// without a callback, and only now are their Ops free.
	free := s.freeOps()
	for _, m := range cache.held {
		cache.reply(m)
	}
	cache.held = nil
	eng.RunUntilQuiet()
	if s.Completed != 12 || s.Outstanding() != 0 {
		t.Fatalf("stale completions were counted: Completed=%d Outstanding=%d", s.Completed, s.Outstanding())
	}
	if got := s.freeOps(); got != free+4 {
		t.Fatalf("%d Ops free after the stale completions, want %d", got, free+4)
	}
	issue(free + 4) // a burst that needs every Op at once, the stale four included
	eng.RunUntilQuiet()
	if completed != 12+free+4 || s.freeOps() != free+4 {
		t.Fatalf("after recycling: %d callbacks (want %d), %d Ops free (want %d: no new Op was needed)",
			completed, 12+free+4, s.freeOps(), free+4)
	}
}

// TestOpIsValidOnlyUntilDoneReturns documents the second ownership rule by
// its consequence: the Op a callback was handed is the very object the
// next operation is built in.
func TestOpIsValidOnlyUntilDoneReturns(t *testing.T) {
	eng, s, _ := rig(2)
	var first *Op
	s.Store(0x40, 9, func(op *Op) { first = op })
	eng.RunUntilQuiet()
	s.Load(0x80, func(op *Op) {
		if op != first {
			t.Errorf("second operation did not reuse the first one's Op")
		}
		if op.Addr != 0x80 || op.Store || op.Val != 0 {
			t.Errorf("recycled Op carries the previous operation's fields: %+v", op)
		}
	})
	eng.RunUntilQuiet()
	if s.Completed != 2 {
		t.Fatalf("completed %d, want 2", s.Completed)
	}
}
