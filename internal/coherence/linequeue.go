package coherence

import (
	"math/bits"

	"crossingguard/internal/mem"
)

// LineQueues holds, per line, the messages a controller has queued behind
// that line's open transaction, oldest first. A queued message is kept
// (Msg.Keep); whoever pops it replays it — Fabric.CallAfter, or
// BeginRecv/EndRecv around a direct call — which is what gives it back.
//
// The queues are an open-addressed table of (line, head, tail) entries,
// keyed by line, and the messages of a line are chained through themselves
// (Msg.next), so queueing allocates nothing once the table has room for the
// most lines ever waiting at once. Most controllers have a few: at most 8 on
// every benchmark workload and on a 16-device chaos shard, 1 to 4 on most.
// The Hammer directory of a 64-device chaos campaign has had 134, which is
// why a line is found by its hash, not by a scan. An entry leaves the table
// with its line's last message, so an emptied entry is free for the next
// line that waits.
//
// A message waits on one line, once: pushing one that is already queued —
// here or on any other controller's queues — panics, where it would cut off
// the messages queued behind it. Pop and Waiting run on every completion
// and every request and almost always find nothing parked, so the queues
// count their messages: with none queued they answer without hashing the
// line, and Len is O(1). The zero value is ready to use.
type LineQueues struct {
	slots []lineQueue // head == nil: empty
	shift uint        // 64 - log2(len(slots))
	lines int         // occupied slots
	n     int         // messages queued over every line
}

// minLineSlots is the table's first size. Kept at most half full, it holds
// the 1 to 4 lines most controllers that queue at all ever have waiting, so
// most make it once and never grow it.
const minLineSlots = 8

// lineQueue is one line's FIFO, head to tail through Msg.next; the tail's
// next is lineEnd.
type lineQueue struct {
	line       mem.Addr
	head, tail *Msg
}

// lineEnd ends every line's chain, so a message is queued exactly when its
// next is not nil.
var lineEnd = new(Msg)

// home is line's first slot: the top bits of a multiplicative hash.
func (q *LineQueues) home(line mem.Addr) int {
	return int(uint64(line) * 0x9e3779b97f4a7c15 >> q.shift)
}

// find returns the slot holding line's entry, or the empty slot that would.
func (q *LineQueues) find(line mem.Addr) int {
	mask := len(q.slots) - 1
	i := q.home(line)
	for e := &q.slots[i]; e.head != nil && e.line != line; e = &q.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// Push keeps m at the tail of line's queue.
func (q *LineQueues) Push(line mem.Addr, m *Msg) {
	m.Keep()
	if m.next != nil {
		panic("coherence: Push of a message that is already queued")
	}
	m.next = lineEnd
	q.n++
	if q.slots == nil {
		q.grow()
	}
	i := q.find(line)
	if e := &q.slots[i]; e.head != nil {
		e.tail.next = m
		e.tail = m
		return
	}
	if 2*(q.lines+1) > len(q.slots) {
		q.grow()
		i = q.find(line)
	}
	q.slots[i] = lineQueue{line: line, head: m, tail: m}
	q.lines++
}

// grow doubles the table and places the waiting lines again.
func (q *LineQueues) grow() {
	old := q.slots
	n := max(2*len(old), minLineSlots)
	q.slots = make([]lineQueue, n)
	q.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, e := range old {
		if e.head != nil {
			q.slots[q.find(e.line)] = e
		}
	}
}

// Pop removes and returns the head of line's queue, or nil when it is
// empty. The message is still kept.
func (q *LineQueues) Pop(line mem.Addr) *Msg {
	if q.n == 0 {
		return nil
	}
	i := q.find(line)
	e := &q.slots[i]
	m := e.head
	if m == nil {
		return nil
	}
	e.head, m.next = m.next, nil
	if e.head == lineEnd {
		q.remove(i)
	}
	q.n--
	return m
}

// remove empties slot i and moves the entries after it in its probe run
// back, each as far as its home slot allows, so that every entry stays
// reachable from its home and no slot needs a tombstone.
func (q *LineQueues) remove(i int) {
	mask := len(q.slots) - 1
	for j := (i + 1) & mask; q.slots[j].head != nil; j = (j + 1) & mask {
		if h := q.home(q.slots[j].line); (j-h)&mask >= (j-i)&mask {
			q.slots[i] = q.slots[j]
			i = j
		}
	}
	q.slots[i] = lineQueue{}
	q.lines--
}

// Waiting reports whether line has queued messages.
func (q *LineQueues) Waiting(line mem.Addr) bool {
	return q.n > 0 && q.slots[q.find(line)].head != nil
}

// Len counts the queued messages of every line.
func (q *LineQueues) Len() int { return q.n }
