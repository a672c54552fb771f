// Package seq implements sequencers: the front-end through which a CPU
// core or accelerator core issues loads and stores to its private cache
// and observes completions. Sequencers enforce at most one outstanding
// operation per cache line (further same-line operations queue locally),
// keep latency totals (sum and maximum, not a distribution: a caller that
// wants one adds op.Done-op.Issued in its done callback, as workload.Run
// does for the accelerator cores), and provide the completion callbacks
// the random tester and workload generators build on.
//
// # Op lifetime
//
// Ops belong to the sequencers, which recycle them through one free list
// per machine (OpList), made where the machine is built and handed to each
// of its sequencers: every core of a machine draws from it, so the machine
// makes as many Ops as it ever has in flight at once, not that many per
// core. The *Op handed to a done callback is valid only until the callback
// returns, so a callback copies out whatever it needs (Result, Issued,
// Done). An Op carries its own request message. That message belongs to
// the cache from delivery until the cache replies — normally by retyping
// it in place (coherence.Reply) — so an Op discarded by Abort after it was
// issued is not reused until its stale completion has come back and been
// dropped.
package seq

import (
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/consistency"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// Op is one memory operation in flight. The sequencers own every Op: one
// hands it to the done callback at completion and takes it back when the
// callback returns (see the package comment).
type Op struct {
	Addr   mem.Addr
	Store  bool
	Val    byte // store operand
	Result byte // load result, set at completion
	Issued sim.Time
	Done   sim.Time
	tag    uint64 // kept apart from msg.Tag: the cache may rewrite msg
	onDone func(*Op)

	// msg is the request the sequencer sends, as &op.msg. From delivery
	// until it replies the message is the cache's, which completes it in
	// place (coherence.Reply), so the same object comes back.
	msg coherence.Msg
	// next threads the Op through the one list it is on — issueQ, another
	// op's waiters, or the machine's free list; waiters, on an issued op,
	// are the operations queued behind it for its line.
	next    *Op
	waiters opFIFO
}

// opFIFO is an intrusive queue of Ops linked through Op.next.
type opFIFO struct{ head, tail *Op }

func (q *opFIFO) push(op *Op) {
	if q.tail == nil {
		q.head = op
	} else {
		q.tail.next = op
	}
	q.tail = op
}

// pop returns the oldest op, or nil when the queue is empty.
func (q *opFIFO) pop() *Op {
	op := q.head
	if op == nil {
		return nil
	}
	q.head, op.next = op.next, nil
	if q.head == nil {
		q.tail = nil
	}
	return op
}

// OpList is one machine's free list of Ops, shared by all its sequencers
// (see the package comment). The zero value is an empty list.
type OpList struct{ free *Op }

// Sequencer issues byte-granularity loads and stores to one cache.
type Sequencer struct {
	id    coherence.NodeID
	name  string
	eng   *sim.Engine
	fab   *network.Fabric
	cache coherence.NodeID

	nextTag uint64
	// inflight holds the operations issued to the cache, at most one per
	// line and at most MaxOutstanding of them, so finding one by tag or
	// by line is a short scan. It is sized once, at the first issue.
	inflight []*Op
	issueQ   opFIFO // waiting on MaxOutstanding
	// outstanding counts inflight, issueQ and every waiters queue.
	outstanding int
	// aborted holds the issued operations Abort discarded whose
	// completions may still arrive from the cache; such completions are
	// dropped silently. An aborted Op stays off the free list until then:
	// its message is still in the cache or on the wire.
	aborted []*Op
	ops     *OpList

	// MaxOutstanding bounds concurrently issued operations (0 = 1).
	MaxOutstanding int

	// Statistics.
	Loads, Stores uint64
	TotalLatency  sim.Time
	MaxLatency    sim.Time
	Completed     uint64
	Aborted       uint64

	// OnQuiesce, when non-nil, fires whenever the sequencer goes from
	// busy to fully idle.
	OnQuiesce func()

	// Rec, when non-nil, receives one observation record per completed
	// operation (consistency recording). config.Build attaches it when
	// Spec.Consistency is set; nil (the default) keeps the completion
	// path record-free — Stream.Active is a single nil check.
	Rec *consistency.Stream
}

// New returns a sequencer with the given node id, wired to cache, drawing
// its Ops from ops: the machine's list, shared with its other sequencers.
func New(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric, cache coherence.NodeID, ops *OpList) *Sequencer {
	s := &Sequencer{id: id, name: name, eng: eng, fab: fab, cache: cache, ops: ops, MaxOutstanding: 16}
	fab.Register(s)
	return s
}

// ID implements coherence.Controller.
func (s *Sequencer) ID() coherence.NodeID { return s.id }

// Name implements coherence.Controller.
func (s *Sequencer) Name() string { return s.name }

// Outstanding reports operations issued or queued but not completed.
func (s *Sequencer) Outstanding() int { return s.outstanding }

// Load issues a load of one byte; done (optional) runs at completion.
func (s *Sequencer) Load(addr mem.Addr, done func(*Op)) {
	op := s.newOp()
	op.Addr, op.onDone = addr, done
	s.submit(op)
}

// Store issues a store of one byte; done (optional) runs at completion.
func (s *Sequencer) Store(addr mem.Addr, val byte, done func(*Op)) {
	op := s.newOp()
	op.Addr, op.Store, op.Val, op.onDone = addr, true, val, done
	s.submit(op)
}

// newOp returns a zeroed Op, recycled when one is free.
func (s *Sequencer) newOp() *Op {
	l := s.ops
	op := l.free
	if op == nil {
		return &Op{}
	}
	l.free, op.next = op.next, nil
	return op
}

// release zeroes op, which nothing refers to any more, onto the free list.
func (s *Sequencer) release(op *Op) {
	l := s.ops
	*op = Op{next: l.free}
	l.free = op
}

func (s *Sequencer) submit(op *Op) {
	s.outstanding++
	if len(s.inflight) >= max(s.MaxOutstanding, 1) {
		s.issueQ.push(op)
		return
	}
	s.tryIssue(op)
}

// tryIssue sends op to the cache, or queues it behind the operation that
// holds its line.
func (s *Sequencer) tryIssue(op *Op) {
	line := op.Addr.Line()
	for _, busy := range s.inflight {
		if busy.Addr.Line() == line {
			busy.waiters.push(op)
			return
		}
	}
	s.issue(op)
}

func (s *Sequencer) issue(op *Op) {
	s.nextTag++
	op.tag = s.nextTag
	op.Issued = s.eng.Now()
	if s.inflight == nil {
		s.inflight = make([]*Op, 0, max(s.MaxOutstanding, 1))
	}
	s.inflight = append(s.inflight, op)
	ty := coherence.ReqLoad
	if op.Store {
		ty = coherence.ReqStore
	}
	op.msg = coherence.Msg{
		Type: ty, Addr: op.Addr, Src: s.id, Dst: s.cache,
		Val: op.Val, Tag: op.tag,
	}
	s.fab.Send(&op.msg)
}

// take removes and returns the op carrying tag from ops, or nil. Order in
// ops carries no meaning, so the last element fills the hole.
func take(ops *[]*Op, tag uint64) *Op {
	list := *ops
	for i, op := range list {
		if op.tag == tag {
			last := len(list) - 1
			list[i], list[last] = list[last], nil
			*ops = list[:last]
			return op
		}
	}
	return nil
}

// Abort drops every in-flight and queued operation without completing
// it: no callbacks, no latency samples, no consistency records (the
// device-reset step of quarantine recovery — the operations' fate is
// undefined and must not enter the observed history). Completions for
// aborted tags that are still in flight from the cache are tolerated and
// dropped. Aborted counts the operations discarded.
func (s *Sequencer) Abort() {
	s.Aborted += uint64(s.outstanding)
	s.outstanding = 0
	for i, op := range s.inflight {
		s.drain(&op.waiters)
		s.aborted = append(s.aborted, op)
		s.inflight[i] = nil
	}
	s.inflight = s.inflight[:0]
	s.drain(&s.issueQ)
	if s.OnQuiesce != nil {
		s.OnQuiesce()
	}
}

// drain releases every op on q: queued operations were never sent, so
// nothing else holds them.
func (s *Sequencer) drain(q *opFIFO) {
	for op := q.pop(); op != nil; op = q.pop() {
		s.release(op)
	}
}

// Recv handles completion messages from the cache. Operations are found
// by Tag, never by pointer: a cache may answer with the request retyped
// in place or with a message of its own.
func (s *Sequencer) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.RespLoad, coherence.RespStore:
	default:
		panic(fmt.Sprintf("%s: unexpected message %v", s.name, m))
	}
	op := take(&s.inflight, m.Tag)
	if op == nil {
		if stale := take(&s.aborted, m.Tag); stale != nil {
			s.release(stale)
			return
		}
		panic(fmt.Sprintf("%s: completion for unknown tag %d (%v)", s.name, m.Tag, m))
	}

	op.Done = s.eng.Now()
	op.Result = m.Val
	lat := op.Done - op.Issued
	s.Completed++
	s.TotalLatency += lat
	if lat > s.MaxLatency {
		s.MaxLatency = lat
	}
	if op.Store {
		s.Stores++
	} else {
		s.Loads++
	}
	if r := s.Rec; r.Active() {
		if op.Store {
			r.Record(consistency.OpStore, op.Addr, op.Val, op.Issued, op.Done)
		} else {
			r.Record(consistency.OpLoad, op.Addr, op.Result, op.Issued, op.Done)
		}
	}

	// Wake a same-line queued op first (preserves program order per
	// line) — it inherits the rest of the line's queue — then any op
	// waiting on the outstanding limit.
	if next := op.waiters.pop(); next != nil {
		next.waiters = op.waiters
		s.issue(next)
	} else if next := s.issueQ.pop(); next != nil {
		s.tryIssue(next)
	}

	s.outstanding--
	if op.onDone != nil {
		op.onDone(op)
	}
	s.release(op)
	if s.outstanding == 0 && s.OnQuiesce != nil {
		s.OnQuiesce()
	}
}

// AvgLatency returns the mean completion latency in ticks.
func (s *Sequencer) AvgLatency() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Completed)
}
