package accel

import (
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
)

// l2Base is the shared accelerator L2's Crossing Guard side of the
// interface — how a line is put or recalled back, the writebacks in
// flight — and its queues of inner-L1 requests waiting for a line or a
// way.
type l2Base struct {
	id   coherence.NodeID
	name string
	fab  *network.Fabric
	cfg  Config
	xg   coherence.NodeID
	// epoch is the guard epoch the hierarchy operates under, stamped on
	// every message sent (0 until the first device reset).
	epoch uint32

	evictions map[mem.Addr]struct{} // writebacks to the guard awaiting WBAck
	// invs holds (and keeps) a guard Invalidate that arrived during a
	// line's local transaction; it is serviced with priority as soon as
	// the line goes idle, ahead of queued requests (whose own guard Gets
	// may be deferred until this very Invalidate is answered).
	invs      coherence.LineQueues
	waiting   coherence.LineQueues
	stalled   []*coherence.Msg // misses waiting for a recalled way, kept until replayed
	full      []*coherence.Msg // misses that found every way busy, kept until a line goes idle
	replaying *coherence.Msg   // message being replayed from the queue head
	// doRecv and doAInv are the L2's Recv and handleAInv, bound once (the
	// first is also a CallAfter handler).
	doRecv, doAInv func(*coherence.Msg)
	// doReplay is doRecv for a stalled Get, which replays as the head of
	// its line's queue: whatever queued for the line arrived after it.
	doReplay func(*coherence.Msg)
}

func (l *l2Base) init(id coherence.NodeID, name string, fab *network.Fabric, xg coherence.NodeID, cfg Config,
	recv, aInv func(*coherence.Msg)) {
	*l = l2Base{id: id, name: name, fab: fab, cfg: cfg, xg: xg, doRecv: recv, doAInv: aInv,
		evictions: make(map[mem.Addr]struct{})}
	l.doReplay = func(m *coherence.Msg) {
		prev := l.replaying
		l.replaying = m
		recv(m)
		l.replaying = prev
	}
}

// reset empties the queues under a new guard epoch, keeping their storage.
func (l *l2Base) reset(epoch uint32) {
	l.epoch = epoch
	clear(l.evictions)
	l.invs.Reset()
	l.waiting.Reset()
	clear(l.stalled)
	clear(l.full)
	l.stalled, l.full, l.replaying = l.stalled[:0], l.full[:0], nil
}

// ID implements coherence.Controller.
func (l *l2Base) ID() coherence.NodeID { return l.id }

// Name implements coherence.Controller.
func (l *l2Base) Name() string { return l.name }

// send takes a message holding t from the pool, stamps the hierarchy's
// epoch on it and hands it to the fabric (every protocol message an L2
// emits — guard-bound or internal — carries the epoch).
func (l *l2Base) send(t coherence.Msg) {
	t.Src, t.Epoch = l.id, l.epoch
	l.fab.Send(l.fab.Msg(t))
}

// evicting reports whether addr's writeback to the guard is in flight.
func (l *l2Base) evicting(addr mem.Addr) bool {
	_, ok := l.evictions[addr]
	return ok
}

// putToGuard starts the writeback of an evicted line to Crossing Guard,
// by Table 1's Replacement cell for the line's claim, and gives the line's
// block, copied into the Put, back.
func (l *l2Base) putToGuard(addr mem.Addr, host AState, dirty bool, data *mem.Block) {
	l.evictions[addr] = struct{}{}
	l.send(cellMsg(table1.At(claim(host, dirty), evReplacement).send, addr, l.xg, data))
	l.fab.FreeBlock(data)
}

// closeEviction retires addr's writeback (acked, or refused by a
// quarantined guard) and wakes what waited for it.
func (l *l2Base) closeEviction(addr mem.Addr, m *coherence.Msg) {
	if !l.evicting(addr) {
		panic(fmt.Sprintf("%s: %v with no eviction", l.name, m))
	}
	delete(l.evictions, addr)
	l.wake(addr)
	l.replayStalled()
}

// answerInv answers the guard's Invalidate for a line that has just left
// the cache by Table 1's Invalidate cell for the line's claim — with the
// data when the grant or a local write made it ours to return — gives the
// line's block back, and wakes what waited.
func (l *l2Base) answerInv(addr mem.Addr, host AState, dirty bool, data *mem.Block) {
	l.send(cellMsg(table1.At(claim(host, dirty), aInv).send, addr, l.xg, data))
	l.fab.FreeBlock(data)
	l.wake(addr)
	l.replayStalled()
}

// claim is the Table 1 state an L2 line answers the guard from: its grant,
// or Modified once an inner core has written under it.
func claim(host AState, dirty bool) AState {
	if dirty {
		return AM
	}
	return host
}

// wake serves the guard Invalidate parked on addr's line, or with none the
// oldest queued request: the line has gone idle or left the cache, so the
// misses that found every way busy replay too.
func (l *l2Base) wake(addr mem.Addr) {
	l.replay(&l.full)
	next, handle := l.invs.Pop(addr), l.doAInv
	if next == nil {
		if next, handle = l.waiting.Pop(addr), l.doRecv; next == nil {
			return
		}
	}
	// Process synchronously so no same-tick arrival can cut in front.
	prev := l.replaying
	l.replaying = next
	l.fab.BeginRecv(next)
	handle(next)
	l.fab.EndRecv(next)
	l.replaying = prev
}

// replayStalled replays the misses waiting for a recalled way: a line has
// left the cache.
func (l *l2Base) replayStalled() { l.replay(&l.stalled) }

// replay hands every miss of ms back to Recv as the head of its line's
// queue, and empties ms.
func (l *l2Base) replay(ms *[]*coherence.Msg) {
	for i, m := range *ms {
		l.fab.CallAfter(0, l.doReplay, m)
		(*ms)[i] = nil
	}
	*ms = (*ms)[:0]
}

// WBPending reports writebacks to the guard in flight (zero at quiesce).
func (l *l2Base) WBPending() int { return len(l.evictions) }

// grantLevel is the permission a guard grant confers: Table 1's B row.
func grantLevel(t coherence.MsgType) AState { return table1.At(AB, l1Table.Event(t)).next }
