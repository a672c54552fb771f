package seq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// oracle is the sequencer's bookkeeping as it was before the slice, the
// intrusive queues and the free list: a map per question. It exists only
// here, as the reference the model test replays every program against.
type oracle struct {
	id, cache coherence.NodeID
	eng       *sim.Engine
	fab       *network.Fabric

	nextTag        uint64
	inflight       map[uint64]*oracleOp
	perLine        map[mem.Addr]*oracleOp
	lineQ          map[mem.Addr][]*oracleOp
	issueQ         []*oracleOp
	aborted        map[uint64]bool
	maxOutstanding int
	nAborted       uint64
	onQuiesce      func()
}

type oracleOp struct {
	addr   mem.Addr
	store  bool
	val    byte
	issued sim.Time
	tag    uint64
	done   doneFn
}

func newOracle(id coherence.NodeID, eng *sim.Engine, fab *network.Fabric, cache coherence.NodeID) *oracle {
	o := &oracle{id: id, cache: cache, eng: eng, fab: fab,
		inflight: map[uint64]*oracleOp{}, perLine: map[mem.Addr]*oracleOp{},
		lineQ: map[mem.Addr][]*oracleOp{}, aborted: map[uint64]bool{}}
	fab.Register(o)
	return o
}

func (o *oracle) ID() coherence.NodeID { return o.id }
func (o *oracle) Name() string         { return "oracle" }

func (o *oracle) outstanding() int {
	n := len(o.inflight) + len(o.issueQ)
	for _, q := range o.lineQ {
		n += len(q)
	}
	return n
}

func (o *oracle) submit(op *oracleOp) {
	if len(o.inflight) >= max(o.maxOutstanding, 1) {
		o.issueQ = append(o.issueQ, op)
		return
	}
	o.tryIssue(op)
}

func (o *oracle) tryIssue(op *oracleOp) {
	line := op.addr.Line()
	if _, busy := o.perLine[line]; busy {
		o.lineQ[line] = append(o.lineQ[line], op)
		return
	}
	o.nextTag++
	op.tag = o.nextTag
	op.issued = o.eng.Now()
	o.inflight[op.tag] = op
	o.perLine[line] = op
	ty := coherence.ReqLoad
	if op.store {
		ty = coherence.ReqStore
	}
	o.fab.Send(&coherence.Msg{Type: ty, Addr: op.addr, Src: o.id, Dst: o.cache, Val: op.val, Tag: op.tag})
}

func (o *oracle) abort() {
	o.nAborted += uint64(o.outstanding())
	for tag := range o.inflight {
		o.aborted[tag] = true
	}
	o.inflight = map[uint64]*oracleOp{}
	o.perLine = map[mem.Addr]*oracleOp{}
	o.lineQ = map[mem.Addr][]*oracleOp{}
	o.issueQ = nil
	if o.onQuiesce != nil {
		o.onQuiesce()
	}
}

func (o *oracle) Recv(m *coherence.Msg) {
	op, ok := o.inflight[m.Tag]
	if !ok {
		if o.aborted[m.Tag] {
			delete(o.aborted, m.Tag)
			return
		}
		panic(fmt.Sprintf("oracle: completion for unknown tag %d", m.Tag))
	}
	delete(o.inflight, m.Tag)
	line := op.addr.Line()
	delete(o.perLine, line)
	if q := o.lineQ[line]; len(q) > 0 {
		if len(q) == 1 {
			delete(o.lineQ, line)
		} else {
			o.lineQ[line] = q[1:]
		}
		o.tryIssue(q[0])
	} else if len(o.issueQ) > 0 {
		next := o.issueQ[0]
		o.issueQ = o.issueQ[1:]
		o.tryIssue(next)
	}
	op.done(m.Val, op.issued, o.eng.Now())
	if o.outstanding() == 0 && o.onQuiesce != nil {
		o.onQuiesce()
	}
}

// doneFn is a completion as the driver sees it on either implementation.
type doneFn func(result byte, issued, done sim.Time)

// front is what the model driver needs from a sequencer.
type front struct {
	load        func(mem.Addr, doneFn)
	store       func(mem.Addr, byte, doneFn)
	abort       func()
	outstanding func() int
	aborted     func() uint64
}

// modelCache answers every request after a delay taken from its tag, so
// completions overtake each other, and keeps memory so loads see stores.
// Odd tags are completed in place, even tags with a message of its own:
// the sequencer must find its operation by Tag either way.
type modelCache struct {
	id  coherence.NodeID
	eng *sim.Engine
	fab *network.Fabric
	mem *mem.Memory
	log *[]string
}

func (c *modelCache) ID() coherence.NodeID { return c.id }
func (c *modelCache) Name() string         { return "model" }
func (c *modelCache) Recv(m *coherence.Msg) {
	*c.log = append(*c.log, fmt.Sprintf("t=%d cache got %v %v tag=%d val=%d", c.eng.Now(), m.Type, m.Addr, m.Tag, m.Val))
	var val byte
	if m.Type == coherence.ReqStore {
		c.mem.StoreByte(m.Addr, m.Val)
	} else {
		val = c.mem.LoadByte(m.Addr)
	}
	delay := sim.Time(1 + (m.Tag*2654435761>>5)%37)
	if m.Tag%2 == 1 {
		c.fab.SendAfter(delay, coherence.Reply(m, c.id, val), nil)
		return
	}
	ty := coherence.RespLoad
	if m.Type == coherence.ReqStore {
		ty = coherence.RespStore
	}
	c.fab.SendAfter(delay, &coherence.Msg{Type: ty, Addr: m.Addr, Src: c.id, Dst: m.Src, Val: val, Tag: m.Tag}, nil)
}

// runProgram replays the program seed generates on one implementation and
// returns everything observable: each request the cache saw (type, addr,
// tag, value, tick), each completion in order, Outstanding at every step
// and completion, the OnQuiesce firings, and the final counters.
func runProgram(seed int64, maxOutstanding int, useOracle bool) []string {
	var log []string
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 3, network.Config{Latency: 2, Ordered: true})
	fab.Register(&modelCache{id: 100, eng: eng, fab: fab, mem: mem.NewMemory(), log: &log})
	quiesce := func() { log = append(log, fmt.Sprintf("t=%d quiesce", eng.Now())) }

	var f front
	if useOracle {
		o := newOracle(1, eng, fab, 100)
		o.maxOutstanding, o.onQuiesce = maxOutstanding, quiesce
		f = front{
			load:        func(a mem.Addr, d doneFn) { o.submit(&oracleOp{addr: a, done: d}) },
			store:       func(a mem.Addr, v byte, d doneFn) { o.submit(&oracleOp{addr: a, store: true, val: v, done: d}) },
			abort:       o.abort,
			outstanding: o.outstanding,
			aborted:     func() uint64 { return o.nAborted },
		}
	} else {
		s := New(1, "seq", eng, fab, 100, new(OpList))
		s.MaxOutstanding, s.OnQuiesce = maxOutstanding, quiesce
		adapt := func(d doneFn) func(*Op) {
			return func(op *Op) { d(op.Result, op.Issued, op.Done) }
		}
		f = front{
			load:        func(a mem.Addr, d doneFn) { s.Load(a, adapt(d)) },
			store:       func(a mem.Addr, v byte, d doneFn) { s.Store(a, v, adapt(d)) },
			abort:       s.Abort,
			outstanding: s.Outstanding,
			aborted:     func() uint64 { return s.Aborted },
		}
	}

	// Three lines, two bytes each: same-line queues and the issue queue
	// both fill at every MaxOutstanding tried.
	rng := rand.New(rand.NewSource(seed))
	addr := func() mem.Addr { return mem.Addr(0x4000 + rng.Intn(3)*mem.BlockBytes + rng.Intn(2)*7) }
	nextID := 0
	var issue func(follow bool)
	issue = func(follow bool) {
		id := nextID
		nextID++
		a, store, v := addr(), rng.Intn(3) == 0, byte(rng.Intn(256))
		done := func(result byte, issued, done sim.Time) {
			log = append(log, fmt.Sprintf("t=%d op%d done result=%d issued=%d done=%d outstanding=%d",
				eng.Now(), id, result, issued, done, f.outstanding()))
			if id%5 == 0 && !follow {
				issue(true) // a completion that issues from inside its callback
			}
		}
		if store {
			f.store(a, v, done)
		} else {
			f.load(a, done)
		}
		log = append(log, fmt.Sprintf("t=%d op%d issued store=%v %v outstanding=%d", eng.Now(), id, store, a, f.outstanding()))
	}
	at := sim.Time(0)
	for i := 0; i < 120; i++ {
		at += sim.Time(rng.Intn(60))
		if rng.Intn(25) == 0 {
			eng.ScheduleAt(at, func() {
				f.abort()
				log = append(log, fmt.Sprintf("t=%d abort aborted=%d outstanding=%d", eng.Now(), f.aborted(), f.outstanding()))
			})
			continue
		}
		burst := 1 + rng.Intn(3)
		eng.ScheduleAt(at, func() {
			for j := 0; j < burst; j++ {
				issue(false)
			}
		})
	}
	eng.RunUntilQuiet()
	log = append(log, fmt.Sprintf("end t=%d aborted=%d outstanding=%d ops=%d", eng.Now(), f.aborted(), f.outstanding(), nextID))
	return log
}

// TestSequencerMatchesMapOracle drives random Load/Store/Abort programs
// against the sequencer and against the map-based oracle and requires the
// two observable histories to be identical.
func TestSequencerMatchesMapOracle(t *testing.T) {
	for _, maxOut := range []int{1, 2, 16} {
		for seed := int64(1); seed <= 40; seed++ {
			got, want := runProgram(seed, maxOut, false), runProgram(seed, maxOut, true)
			if reflect.DeepEqual(got, want) {
				continue
			}
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					g := "<end of log>"
					if i < len(got) {
						g = got[i]
					}
					t.Fatalf("MaxOutstanding=%d seed=%d: histories diverge at entry %d:\n  sequencer: %s\n  oracle:    %s",
						maxOut, seed, i, g, want[i])
				}
			}
			t.Fatalf("MaxOutstanding=%d seed=%d: sequencer logged %d extra entries, first %q",
				maxOut, seed, len(got)-len(want), got[len(want)])
		}
	}
}
