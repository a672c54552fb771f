package accel

import (
	"fmt"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
)

// weakRig wires two weak cores behind a WeakL2 and a mock guard.
type weakRig struct {
	eng  *sim.Engine
	fab  *network.Fabric
	xg   *mockGuard
	l2   *WeakL2
	l1s  []*WeakL1
	seqs []*seq.Sequencer
}

func newWeakRig(seed int64) *weakRig {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, seed, network.Config{Latency: 3, Ordered: true})
	xg := newMockGuard(1, eng, fab)
	cfg := DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 2, 2
	cfg.L2Sets, cfg.L2Ways = 8, 2
	l2 := NewWeakL2(5, "weakL2", eng, fab, 1, cfg)
	r := &weakRig{eng: eng, fab: fab, xg: xg, l2: l2}
	ops := new(seq.OpList)
	for i := 0; i < 2; i++ {
		l1 := NewWeakL1(coherence.NodeID(10+i), fmt.Sprintf("weakL1[%d]", i), eng, fab, 5, cfg)
		r.l1s = append(r.l1s, l1)
		r.seqs = append(r.seqs, seq.New(coherence.NodeID(100+i), "wk", eng, fab, l1.ID(), ops))
	}
	return r
}

func (r *weakRig) run(t *testing.T) {
	t.Helper()
	r.eng.RunUntilQuiet()
	n := r.l2.Outstanding()
	for _, l1 := range r.l1s {
		n += l1.Outstanding()
	}
	if n != 0 {
		t.Fatalf("%d transactions outstanding", n)
	}
}

func TestWeakSingleCoreCorrect(t *testing.T) {
	r := newWeakRig(1)
	var got byte
	r.seqs[0].Store(0x100, 9, nil)
	r.seqs[0].Load(0x100, func(op *seq.Op) { got = op.Result })
	r.run(t)
	if got != 9 {
		t.Fatalf("loaded %d, want 9", got)
	}
}

func TestWeakWritesInvisibleUntilFlush(t *testing.T) {
	// The defining property: core1's cached copy does NOT see core0's
	// write until core0 flushes and core1 re-reads.
	r := newWeakRig(2)
	var before, stale, fresh byte
	r.seqs[1].Load(0x200, func(op *seq.Op) { before = op.Result }) // cache at core1
	r.run(t)
	r.seqs[0].Store(0x200, 77, nil)
	r.run(t)
	r.seqs[1].Load(0x200, func(op *seq.Op) { stale = op.Result }) // still cached: stale!
	r.run(t)
	if stale != before {
		t.Fatalf("weak model broken: sibling saw the un-flushed write (%d)", stale)
	}
	// Publish: writer flushes; reader drops its copy and re-reads.
	flushed := false
	r.l1s[0].Flush(func() { flushed = true })
	r.run(t)
	if !flushed {
		t.Fatal("flush completion never fired")
	}
	r.l1s[1].Flush(nil) // reader-side acquire: drop stale copies
	r.run(t)
	r.seqs[1].Load(0x200, func(op *seq.Op) { fresh = op.Result })
	r.run(t)
	if fresh != 77 {
		t.Fatalf("after flush, read %d, want 77", fresh)
	}
}

func TestWeakHostRecallMergesDirtyCopies(t *testing.T) {
	// Even with unflushed dirty data in an L1, a guard Invalidate must
	// return the modified data: host coherence is not weakened.
	r := newWeakRig(3)
	r.seqs[0].Store(0x300, 5, nil)
	r.run(t)
	r.xg.inv(0x300, r.l2.ID())
	r.run(t)
	if len(r.xg.invResps) != 1 || r.xg.invResps[0].Type != coherence.ADirtyWB {
		t.Fatalf("recall response = %v, want DirtyWB", r.xg.invResps)
	}
	if r.xg.invResps[0].Data[0] != 5 {
		t.Fatalf("recalled data[0]=%d, want 5 (unflushed write lost)", r.xg.invResps[0].Data[0])
	}
}

func TestWeakWriteNeedsHostPermission(t *testing.T) {
	// A store must pull host write permission through the guard (GetM),
	// even though siblings are not invalidated.
	r := newWeakRig(4)
	r.xg.sGets = coherence.ADataS
	r.seqs[0].Load(0x400, nil) // host grants S
	r.run(t)
	gm := r.fab.StatsFor(r.l2.ID(), r.xg.ID()).MsgsByType[coherence.AGetM]
	if gm != 0 {
		t.Fatalf("premature GetM: %d", gm)
	}
	r.seqs[1].Store(0x400, 1, nil) // upgrade required
	r.run(t)
	gm = r.fab.StatsFor(r.l2.ID(), r.xg.ID()).MsgsByType[coherence.AGetM]
	if gm != 1 {
		t.Fatalf("GetM count = %d, want 1 (upgrade through the guard)", gm)
	}
}

func TestWeakConcurrentReadersShareOneFetch(t *testing.T) {
	// Both cores miss simultaneously; the weak L2 piles them onto one
	// guard fetch instead of serializing.
	r := newWeakRig(5)
	var a, b byte
	r.xg.mem.StoreByte(0x500, 123)
	r.seqs[0].Load(0x500, func(op *seq.Op) { a = op.Result })
	r.seqs[1].Load(0x500, func(op *seq.Op) { b = op.Result })
	r.run(t)
	if a != 123 || b != 123 {
		t.Fatalf("reads %d/%d, want 123/123", a, b)
	}
	if gets := r.xg.gets; gets != 1 {
		t.Fatalf("guard fetches = %d, want 1 (shared fetch)", gets)
	}
}

func TestWeakEvictionWritesBack(t *testing.T) {
	r := newWeakRig(6)
	// Fill one L1 set (2 ways, 2 sets => stride 128) with dirty lines.
	for i := 0; i < 3; i++ {
		r.seqs[0].Store(mem.Addr(0x000+i*128), byte(i+1), nil)
	}
	r.run(t)
	// Values are recoverable after L1 evictions via flush+reload.
	r.l1s[0].Flush(nil)
	r.run(t)
	for i := 0; i < 3; i++ {
		var got byte
		r.seqs[0].Load(mem.Addr(0x000+i*128), func(op *seq.Op) { got = op.Result })
		r.run(t)
		if got != byte(i+1) {
			t.Fatalf("line %d lost: got %d", i, got)
		}
	}
}

func TestWeakFlushNothingDirty(t *testing.T) {
	r := newWeakRig(7)
	r.seqs[0].Load(0x600, nil)
	r.run(t)
	fired := false
	r.l1s[0].Flush(func() { fired = true })
	r.run(t)
	if !fired {
		t.Fatal("flush of clean cache never completed")
	}
}
