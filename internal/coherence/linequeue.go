package coherence

import "crossingguard/internal/mem"

// LineQueues holds, per line, the messages a controller has queued behind
// that line's open transaction, oldest first. A queued message is kept
// (Msg.Keep); whoever pops it replays it — Fabric.CallAfter, or
// BeginRecv/EndRecv around a direct call — which is what gives it back.
// An emptied line keeps its entry and its storage for the next wait.
//
// Pop and Waiting run on every completion and every request, and almost
// always find nothing parked, so the queues count their messages: with
// none queued they answer without hashing the line, and Len is O(1). The
// zero value is ready to use; the map is made on the first Push.
type LineQueues struct {
	lines map[mem.Addr][]*Msg
	n     int // messages queued over every line
}

// Push keeps m at the tail of line's queue.
func (q *LineQueues) Push(line mem.Addr, m *Msg) {
	m.Keep()
	if q.lines == nil {
		q.lines = make(map[mem.Addr][]*Msg)
	}
	q.lines[line] = append(q.lines[line], m)
	q.n++
}

// Pop removes and returns the head of line's queue, or nil when it is
// empty. The message is still kept.
func (q *LineQueues) Pop(line mem.Addr) *Msg {
	if q.n == 0 {
		return nil
	}
	l := q.lines[line]
	if len(l) == 0 {
		return nil
	}
	m := l[0]
	n := copy(l, l[1:])
	l[n] = nil
	q.lines[line] = l[:n]
	q.n--
	return m
}

// Waiting reports whether line has queued messages.
func (q *LineQueues) Waiting(line mem.Addr) bool { return q.n > 0 && len(q.lines[line]) > 0 }

// Len counts the queued messages of every line.
func (q *LineQueues) Len() int { return q.n }
