package coherence

import "crossingguard/internal/mem"

// LineQueues holds, per line, the messages a controller has queued behind
// that line's open transaction, oldest first. A queued message is kept
// (Msg.Keep); whoever pops it replays it — Fabric.CallAfter, or
// BeginRecv/EndRecv around a direct call — which is what gives it back.
// An emptied line keeps its entry and its storage for the next wait.
type LineQueues map[mem.Addr][]*Msg

// Push keeps m at the tail of line's queue.
func (q LineQueues) Push(line mem.Addr, m *Msg) {
	m.Keep()
	q[line] = append(q[line], m)
}

// Pop removes and returns the head of line's queue, or nil when it is
// empty. The message is still kept.
func (q LineQueues) Pop(line mem.Addr) *Msg {
	l := q[line]
	if len(l) == 0 {
		return nil
	}
	m := l[0]
	n := copy(l, l[1:])
	l[n] = nil
	q[line] = l[:n]
	return m
}

// Waiting reports whether line has queued messages.
func (q LineQueues) Waiting(line mem.Addr) bool { return len(q[line]) > 0 }

// Len counts the queued messages of every line.
func (q LineQueues) Len() int {
	n := 0
	for _, l := range q {
		n += len(l)
	}
	return n
}
