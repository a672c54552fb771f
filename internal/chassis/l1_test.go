package chassis

import (
	"testing"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/sim"
)

// toyLine is a line with no protocol: busy, a record, is all the chassis
// asks of it.
type toyLine struct {
	txn *toyTxn
	tag int
}

type toyTxn struct{ n int }

// toy embeds the chassis the way a protocol does. Its core-operation
// handler only notes what reached it; its evict buffers every victim.
type toy struct {
	L1[toyLine, toyTxn]
	eng     *sim.Engine
	handled int
	last    *coherence.Msg
	evicted int
}

func (t *toy) Recv(m *coherence.Msg) { t.cpu(m) }

func (t *toy) cpu(m *coherence.Msg) { t.handled, t.last = t.handled+1, m }

// open opens a transaction on line e; settle closes it.
func (t *toy) open(e *cacheset.Entry[toyLine]) { e.V.txn = t.Txns.Get() }

func (t *toy) settle(e *cacheset.Entry[toyLine]) {
	t.Txns.Put(e.V.txn)
	e.V.txn = nil
}

func (t *toy) evict(addr mem.Addr, v *toyLine) {
	t.evicted++
	t.Buffer(addr, v)
}

// run drains the engine and returns how many operations the handler saw.
func (t *toy) run() int {
	before := t.handled
	t.eng.RunUntilQuiet()
	return t.handled - before
}

func newToy(sets, ways int) *toy {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
	t := &toy{eng: eng}
	t.Init(t, 7, "toy", fab, sets, ways, 1, nil, func(v *toyLine) bool { return v.txn != nil }, t.evict, t.cpu)
	return t
}

// line returns the i-th line address of set 0 in a one-set cache.
func line(i int) mem.Addr { return mem.Addr(0x1000 + i*mem.BlockBytes) }

func load(addr mem.Addr) *coherence.Msg { return &coherence.Msg{Type: coherence.ReqLoad, Addr: addr} }

func TestBufferedLineParksUntilRetire(t *testing.T) {
	c := newToy(1, 2)
	c.Buffer(line(0), &toyLine{tag: 9})
	first, second := load(line(0)), load(line(0))
	for _, m := range []*coherence.Msg{first, second} {
		if e, ok := c.Admit(line(0), m); ok || e != nil {
			t.Fatalf("Admit behind a buffered write-back = (%v, %v), want parked", e, ok)
		}
	}
	if n := c.run(); n != 0 {
		t.Fatalf("%d operations replayed while the write-back was open", n)
	}
	if c.Outstanding() != 3 || c.WBPending() != 1 {
		t.Fatalf("Outstanding %d WBPending %d, want 3 and 1", c.Outstanding(), c.WBPending())
	}
	c.Retire(line(0), nil)
	if n := c.run(); n != 1 || c.last != first {
		t.Fatalf("Retire replayed %d operations (last %p), want the oldest once", n, c.last)
	}
	if n := c.run(); n != 0 {
		t.Fatalf("%d operations replayed with nothing settling", n)
	}
	// The second waits for the line to settle again, as it would behind
	// the first's transaction.
	c.Settled(line(0))
	if n := c.run(); n != 1 || c.last != second {
		t.Fatalf("Settled replayed %d operations, want the second once", n)
	}
	if c.Outstanding() != 0 {
		t.Fatalf("Outstanding %d after everything replayed", c.Outstanding())
	}
}

func TestBusyLineParks(t *testing.T) {
	c := newToy(1, 2)
	e := c.Allocate(line(0), load(line(0)))
	c.open(e)
	m := load(line(0) + 3)
	if _, ok := c.Admit(line(0), m); ok {
		t.Fatal("Admit to a busy line did not park")
	}
	c.settle(e)
	if e2, ok := c.Admit(line(0), m); !ok || e2 != e {
		t.Fatalf("Admit to an idle line = (%v, %v), want the line", e2, ok)
	}
	if e2, ok := c.Admit(line(1), m); !ok || e2 != nil {
		t.Fatalf("Admit on a miss = (%v, %v), want (nil, true)", e2, ok)
	}
}

func TestEveryWayBusyStallsUntilAnyLineSettles(t *testing.T) {
	c := newToy(1, 2)
	for i := 0; i < 2; i++ {
		c.open(c.Allocate(line(i), load(line(i))))
	}
	m := load(line(2))
	if e := c.Allocate(line(2), m); e != nil {
		t.Fatalf("Allocate with every way busy returned %v", e)
	}
	if c.evicted != 0 || c.Outstanding() != 3 {
		t.Fatalf("evicted %d, Outstanding %d; want 0 and 3 (two busy lines, one stalled)", c.evicted, c.Outstanding())
	}
	if n := c.run(); n != 0 {
		t.Fatalf("%d operations replayed before anything settled", n)
	}
	c.settle(c.Lines.Peek(line(1)))
	c.Settled(line(1)) // not the line the operation wants
	if n := c.run(); n != 1 || c.last != m {
		t.Fatalf("Settled replayed %d operations, want the stalled one", n)
	}
	if e := c.Allocate(line(2), m); e == nil || c.evicted != 1 || c.Buffered(line(1)) == nil {
		t.Fatalf("replayed Allocate = %v after %d evictions, want line 1 evicted and buffered", e, c.evicted)
	}
}

func TestRetireTheMiddleOfThree(t *testing.T) {
	c := newToy(1, 2)
	for i := 0; i < 3; i++ {
		c.Buffer(line(i), &toyLine{tag: i})
	}
	c.Retire(line(1), nil)
	if c.Buffered(line(1)) != nil || c.WBPending() != 2 {
		t.Fatalf("line 1 still buffered, or WBPending %d != 2", c.WBPending())
	}
	for _, i := range []int{0, 2} {
		if v := c.Buffered(line(i)); v == nil || v.tag != i {
			t.Fatalf("line %d lost from the buffer (got %v)", i, v)
		}
	}
}

func TestResetForgetsEverything(t *testing.T) {
	c := newToy(1, 2)
	c.open(c.Allocate(line(0), load(line(0))))
	c.open(c.Allocate(line(1), load(line(1))))
	c.Allocate(line(2), load(line(2))) // stalls
	c.Buffer(line(3), &toyLine{})
	c.Admit(line(3), load(line(3))) // parks
	if c.Outstanding() != 5 {
		t.Fatalf("Outstanding %d before Reset, want 5", c.Outstanding())
	}
	c.Reset()
	if c.Outstanding() != 0 || c.WBPending() != 0 || c.Lines.Count() != 0 || c.Buffered(line(3)) != nil {
		t.Fatalf("after Reset: Outstanding %d, WBPending %d, %d lines", c.Outstanding(), c.WBPending(), c.Lines.Count())
	}
	c.Settled(line(3))
	if n := c.run(); n != 0 {
		t.Fatalf("%d forgotten operations replayed after Reset", n)
	}
}

// TestMissPathAllocFree holds the warmed miss path at no heap objects:
// Admit (miss), Allocate with an eviction the protocol buffers, a second
// operation parked behind the buffered victim, Retire, the replay, Settled.
// A method value made per call, or a victim whose address escapes, shows
// here as one object per cycle.
func TestMissPathAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := newToy(1, 2)
	miss, behind := load(0), load(0)
	next := 0
	cycle := func() {
		want := line(next % 4)
		next++
		miss.Addr = want
		if e, ok := c.Admit(want, miss); !ok || e != nil {
			t.Fatalf("Admit(%v) = (%v, %v), want a miss", want, e, ok)
		}
		before := c.evicted
		if c.Allocate(want, miss) == nil {
			t.Fatal("Allocate stalled")
		}
		if c.evicted == before {
			return // the first two fills find an empty way
		}
		victim := c.wb[0].Addr
		behind.Addr = victim
		if _, ok := c.Admit(victim, behind); ok {
			t.Fatal("Admit behind the buffered victim did not park")
		}
		c.Retire(victim, nil)
		if c.run() != 1 {
			t.Fatal("Retire did not replay the parked operation")
		}
		c.Settled(want)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("%v heap objects per warmed miss cycle, want 0", n)
	}
}
