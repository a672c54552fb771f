package coherence

import (
	"testing"
	"unsafe"

	"crossingguard/internal/mem"
	"crossingguard/internal/raceflag"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// deliver is what the fabric does around Recv.
func deliver(p *Pool, m *Msg, recv func(*Msg)) {
	p.BeginRecv(m)
	recv(m)
	p.EndRecv(m)
}

// A delivered message goes back when Recv returns and is handed out again
// with nothing of its previous tenant: every field overwritten, and 64
// zero bytes where the next template asks for a zero block.
func TestPoolRecyclesAndOverwrites(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the lifetime check (on under -race) never reuses a message")
	}
	var p Pool
	var blk mem.Block
	for i := range blk {
		blk[i] = 0xAB
	}
	m := p.Msg(Msg{Type: HData, Addr: 0x40, Src: 1, Dst: 2, Data: &blk, Dirty: true, Acks: 3, Span: 9})
	if m.Data == &blk || *m.Data != blk {
		t.Fatal("the block was not copied into the message")
	}
	blk[0] = 0 // the sender goes on mutating its line
	if m.Data[0] != 0xAB {
		t.Fatal("message shares the sender's block")
	}
	deliver(&p, m, func(*Msg) {})
	if st := p.Stats(); st.MsgsOut != 0 || st.MsgsMade != 1 {
		t.Fatalf("after delivery: %+v", st)
	}

	var zero mem.Block
	m2 := p.Msg(Msg{Type: ADataM, Addr: 0x80, Data: &zero})
	if m2 != m {
		t.Fatal("released message was not reused")
	}
	if m2.Src != 0 || m2.Dirty || m2.Acks != 0 || m2.Span != 0 || *m2.Data != zero {
		t.Fatalf("previous tenant shows through: %v data %v", m2, m2.Data)
	}
	deliver(&p, m2, func(*Msg) {})
	if m3 := p.Msg(Msg{Type: HAck}); m3.Data != nil || m3.Bytes() != ControlBytes {
		t.Fatalf("data-less message carries %v", m3.Data)
	}
}

// Keep defers the give-back to the keeper: Release, or a replay between
// BeginRecv and EndRecv that does not keep again.
func TestPoolKeep(t *testing.T) {
	var p Pool
	m := p.Msg(Msg{Type: HGetS})
	deliver(&p, m, func(m *Msg) { m.Keep() })
	if p.Stats().MsgsOut != 1 {
		t.Fatal("kept message was taken back")
	}
	deliver(&p, m, func(m *Msg) { m.Keep() }) // replayed, queued again
	if p.Stats().MsgsOut != 1 {
		t.Fatal("re-kept message was taken back")
	}
	deliver(&p, m, func(*Msg) {}) // replayed, consumed
	if p.Stats().MsgsOut != 0 {
		t.Fatal("replayed message was not taken back")
	}

	m = p.Msg(Msg{Type: HGetS})
	deliver(&p, m, func(m *Msg) { m.Keep() })
	p.Release(m)
	if p.Stats().MsgsOut != 0 {
		t.Fatal("Release did not return the message")
	}
	mustPanic(t, "second Release", func() { p.Release(m) })
}

// A message kept, released and handed out again inside one Recv belongs to
// its new tenant: the fabric's EndRecv must leave it alone.
func TestPoolEndRecvAfterReuse(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the lifetime check (on under -race) never reuses a message")
	}
	var p Pool
	m := p.Msg(Msg{Type: HGetS})
	var again *Msg
	deliver(&p, m, func(m *Msg) {
		m.Keep()
		p.Release(m)
		again = p.Msg(Msg{Type: HPut})
	})
	if again != m || p.Stats().MsgsOut != 1 || again.Type != HPut {
		t.Fatalf("new tenant disturbed: same=%v %+v %v", again == m, p.Stats(), again)
	}
}

// Messages the pool did not hand out are never recycled, whatever is
// called on them; a disowned one is the collector's.
func TestPoolIgnoresForgedAndDisowned(t *testing.T) {
	var p Pool
	forged := &Msg{Type: AGetS}
	forged.Keep()
	deliver(&p, forged, func(*Msg) {})
	p.Release(forged)
	p.Release(forged)
	if st := p.Stats(); st.MsgsOut != 0 || st.MsgsMade != 0 {
		t.Fatalf("forged message entered the pool: %+v", st)
	}
	if m := p.Msg(Msg{Type: HAck}); m == forged {
		t.Fatal("forged message handed out")
	}
	blk := forged.OwnData()
	if blk == nil || forged.Data != blk || forged.Bytes() != ControlBytes+DataBytes {
		t.Fatal("OwnData on a forged message")
	}

	// A by-value copy of a pooled message (what faults.corrupt makes) is a
	// forged message like any other: it never enters the free list, where
	// it would share its original's block.
	orig := p.Msg(Msg{Type: ADataM, Data: new(mem.Block)})
	cp := *orig
	deliver(&p, &cp, func(*Msg) {})
	p.Release(&cp)
	if st := p.Stats(); st.MsgsOut != 2 {
		t.Fatalf("a copy of a pooled message was taken for it: %+v", st)
	}
	deliver(&p, orig, func(*Msg) {})

	d := p.Msg(Msg{Type: ADataS})
	p.Disown(d)
	deliver(&p, d, func(*Msg) {})
	deliver(&p, d, func(*Msg) {}) // a duplicate delivers one pointer twice
	if m := p.Msg(Msg{Type: HAck}); m == d {
		t.Fatal("disowned message handed out")
	}
}

// The lifetime check: released messages and blocks are poisoned and never
// handed out again, and every misuse panics.
func TestPoolLifetimeCheck(t *testing.T) {
	var p Pool
	p.CheckLifetimes()
	var blk mem.Block
	blk[5] = 1
	m := p.Msg(Msg{Type: HData, Addr: 0x40, Data: &blk})
	store := m.Data
	deliver(&p, m, func(*Msg) {})
	if m.Type != MsgInvalid || m.Data != nil || m.Addr != 0 {
		t.Fatalf("released message not poisoned: %v", m)
	}
	for _, b := range store {
		if b != poisonByte {
			t.Fatalf("released block not poisoned: %v", store)
		}
	}
	if m2 := p.Msg(Msg{Type: HAck}); m2 == m {
		t.Fatal("released message handed out under the check")
	}
	mustPanic(t, "Keep on a released message", func() { m.Keep() })
	mustPanic(t, "delivery of a released message", func() { p.BeginRecv(m) })
	mustPanic(t, "Release of a released message", func() { p.Release(m) })

	b := p.CopyBlock(&blk)
	if *b != blk || b == &blk {
		t.Fatal("CopyBlock")
	}
	p.FreeBlock(b)
	if b[5] != poisonByte {
		t.Fatal("freed block not poisoned")
	}
	if b2 := p.CopyBlock(nil); b2 == b || *b2 != (mem.Block{}) {
		t.Fatal("freed block handed out under the check, or not zeroed")
	}
	var line *mem.Block
	p.FillBlock(&line, &blk)
	first := line
	if line == nil || *line != blk {
		t.Fatal("FillBlock did not fill an empty line")
	}
	p.FillBlock(&line, nil)
	if line != first || *line != (mem.Block{}) {
		t.Fatal("FillBlock did not refill in place, or nil is not zeros")
	}
	p.FreeBlock(line)
	mustPanic(t, "second FreeBlock", func() { p.FreeBlock(b) })
	mustPanic(t, "FreeBlock of a foreign block", func() { p.FreeBlock(new(mem.Block)) })
	p.FreeBlock(nil)
}

func TestPoolBlocksRecycle(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the lifetime check (on under -race) never reuses a block")
	}
	var p Pool
	var blk mem.Block
	blk[0] = 7
	b := p.CopyBlock(&blk)
	p.FreeBlock(b)
	if b2 := p.CopyBlock(nil); b2 != b || b2[0] != 0 {
		t.Fatal("block not reused, or previous contents show through")
	}
	if st := p.Stats(); st.BlocksOut != 1 || st.BlocksMade != 1 {
		t.Fatalf("%+v", st)
	}
}

func TestNodeSet(t *testing.T) {
	var s NodeSet
	for _, n := range []NodeID{3000, 1, 2000, 1, 7} {
		s.Add(n)
	}
	want := []NodeID{1, 7, 2000, 3000}
	if len(s) != len(want) {
		t.Fatalf("%v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("%v, want %v", s, want)
		}
	}
	if !s.Has(7) || s.Has(8) {
		t.Fatal("Has")
	}
	if !s.Remove(7) || s.Remove(7) || s.Has(7) || len(s) != 3 {
		t.Fatalf("Remove: %v", s)
	}
	store := &s[:1][0]
	s = s[:0]
	s.Add(5)
	if &s[0] != store {
		t.Fatal("emptied set did not keep its storage")
	}
}

func TestLineQueues(t *testing.T) {
	var p Pool
	var q LineQueues
	a, b, c := p.Msg(Msg{Acks: 1}), p.Msg(Msg{Acks: 2}), p.Msg(Msg{Acks: 3})
	for _, m := range []*Msg{a, b} {
		deliver(&p, m, func(m *Msg) { q.Push(0x40, m) })
	}
	deliver(&p, c, func(m *Msg) { q.Push(0x80, m) })
	if p.Stats().MsgsOut != 3 || q.Len() != 3 || !q.Waiting(0x40) || q.Waiting(0xc0) {
		t.Fatalf("queued messages not kept: %+v len %d", p.Stats(), q.Len())
	}
	for _, want := range []*Msg{a, b, nil} {
		got := q.Pop(0x40)
		if got != want {
			t.Fatalf("Pop = %v, want %v", got, want)
		}
		if got != nil {
			p.Release(got)
		}
	}
	if q.Waiting(0x40) || q.Len() != 1 || p.Stats().MsgsOut != 1 {
		t.Fatalf("after pops: len %d %+v", q.Len(), p.Stats())
	}
}

// TestLineQueuesZeroValue: a zero LineQueues answers before its first
// Push, and across interleaved pushes and pops on several lines Pop,
// Waiting and the counted Len agree with a per-line FIFO model — through
// every line emptying and refilling, the whole queue emptying, and, with
// many lines, the table growing and entries leaving from the middle of
// probe runs. A line that waits takes the entry another line emptied, and
// once the queues have room for as many lines as ever waited at once,
// queueing behind new lines allocates nothing.
func TestLineQueuesZeroValue(t *testing.T) {
	var q LineQueues
	if q.Pop(0x40) != nil || q.Waiting(0x40) || q.Len() != 0 {
		t.Fatal("zero LineQueues is not empty")
	}
	var p Pool
	model := map[mem.Addr][]*Msg{}
	queued := 0
	check := func(lines []mem.Addr, steps int) {
		t.Helper()
		for i := 0; i < steps; i++ {
			// Pushes outnumber pops in the first half of every 100 steps and
			// pops win the second half, so lines and the whole queue empty.
			line := lines[(i*7+i/5)%len(lines)]
			if i%100 < 50 && i%3 != 2 || i%100 >= 50 && i%6 == 0 {
				m := p.Msg(Msg{Acks: i})
				deliver(&p, m, func(m *Msg) { q.Push(line, m) })
				model[line] = append(model[line], m)
				queued++
			} else {
				var want *Msg
				if l := model[line]; len(l) > 0 {
					want, model[line] = l[0], l[1:]
					queued--
				}
				if got := q.Pop(line); got != want {
					t.Fatalf("step %d: Pop(%#x) = %v, want %v", i, line, got, want)
				}
				if want != nil {
					p.Release(want)
				}
			}
			for _, l := range lines {
				if q.Waiting(l) != (len(model[l]) > 0) {
					t.Fatalf("step %d: Waiting(%#x) = %v with %d queued", i, l, q.Waiting(l), len(model[l]))
				}
			}
			if q.Len() != queued || int(p.Stats().MsgsOut) != queued {
				t.Fatalf("step %d: Len %d, %d kept, want %d", i, q.Len(), p.Stats().MsgsOut, queued)
			}
		}
		for _, l := range lines {
			for m := q.Pop(l); m != nil; m = q.Pop(l) {
				p.Release(m)
			}
			model[l] = nil
		}
		queued = 0
		if q.Len() != 0 || q.Waiting(lines[0]) || p.Stats().MsgsOut != 0 || q.lines != 0 {
			t.Fatalf("drained queues: Len %d, %d entries, %+v", q.Len(), q.lines, p.Stats())
		}
	}
	check([]mem.Addr{0x0, 0x40, 0x1000, 0x1040}, 400)
	// 97 lines, dozens of them waiting at once: the table grows past its
	// first size, and lines sharing home slots empty in every order.
	var many []mem.Addr
	for i := 0; i < 97; i++ {
		many = append(many, mem.Addr(i*i*mem.BlockBytes))
	}
	check(many, 2000)
	if len(q.slots) <= minLineSlots {
		t.Fatalf("%d slots after dozens of lines waited, want the table grown", len(q.slots))
	}

	// Entry reuse: with 0x40 and 0x80 waiting, 0x40 empties and its entry
	// leaves the table — two entries, not three — while 0x80's still queued
	// one stays.
	a, b, c := p.Msg(Msg{}), p.Msg(Msg{}), p.Msg(Msg{})
	q.Push(0x40, a)
	q.Push(0x80, b)
	if q.Pop(0x40) != a {
		t.Fatal("Pop(0x40) is not the message pushed")
	}
	q.Push(0xc0, c)
	if q.lines != 2 || q.Waiting(0x40) || !q.Waiting(0x80) || !q.Waiting(0xc0) {
		t.Fatalf("%d entries after a line emptied and another waited, want 2", q.lines)
	}
	if q.Pop(0xc0) != c || q.Pop(0x80) != b || q.Len() != 0 {
		t.Fatal("queues lost a message across the reused entry")
	}
	for _, m := range []*Msg{a, b, c} {
		p.Release(m)
	}

	// Warm, every round queues behind lines none has used before,
	// interleaved, and empties one line while others still wait.
	msgs := make([]*Msg, 12)
	for i := range msgs {
		msgs[i] = p.Msg(Msg{Acks: i})
	}
	base := mem.Addr(0x10000)
	round := func() {
		base += 4 * mem.BlockBytes
		for i, m := range msgs {
			q.Push(base+mem.Addr(i%4)*mem.BlockBytes, m)
			if i == 5 { // line 1 empties with lines 0, 2 and 3 waiting, and waits again from message 9
				if q.Pop(base+mem.BlockBytes) != msgs[1] || q.Pop(base+mem.BlockBytes) != msgs[5] {
					t.Fatal("line 1 popped out of order")
				}
			}
		}
		for l := mem.Addr(0); l < 4; l++ {
			for q.Pop(base+l*mem.BlockBytes) != nil {
			}
		}
		if q.Len() != 0 {
			t.Fatalf("%d messages left queued", q.Len())
		}
	}
	round()
	if raceflag.Enabled {
		return // allocation accounting is perturbed by the race detector
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round of 12 messages over 4 new lines allocated %v objects, want 0", allocs)
	}
}

// TestLineQueuesPushTwicePanics: a message waits on one line, once.
// Pushing it again — as its line's tail, from the middle of its line, onto
// another line or onto another controller's queues — would cut off the
// messages behind it, so Push panics instead.
func TestLineQueuesPushTwicePanics(t *testing.T) {
	var p Pool
	for _, tc := range []struct {
		name   string
		behind bool // a second message waits behind m
		other  bool // the second Push goes to another LineQueues
		line   mem.Addr
	}{
		{"tail", false, false, 0x40},
		{"mid-line", true, false, 0x40},
		{"other line", true, false, 0x80},
		{"other queues", false, true, 0x40},
	} {
		var q, r LineQueues
		m := p.Msg(Msg{})
		q.Push(0x40, m)
		if tc.behind {
			q.Push(0x40, p.Msg(Msg{}))
		}
		again := &q
		if tc.other {
			again = &r
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a second Push of a queued message did not panic", tc.name)
				}
			}()
			again.Push(tc.line, m)
		}()
	}
}

// TestMsgSize pins a message's size: the link that chains it into a line's
// queue or the pool's free list (next) sits in what used to be padding, so
// a pooled message and its block fit the 160-byte size class.
func TestMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got > 96 {
		t.Fatalf("unsafe.Sizeof(Msg{}) = %d, want at most 96", got)
	}
}
