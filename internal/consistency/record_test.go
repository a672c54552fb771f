package consistency

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"crossingguard/internal/sim"
)

func TestNilInstrumentsAreSafe(t *testing.T) {
	var s *Stream
	if s.Active() {
		t.Fatal("nil stream reports active")
	}
	s.Record(OpLoad, 0x100, 5, 1, 2) // must not panic
	if s.Len() != 0 || s.Recs() != nil || s.Core() != -1 || s.Name() != "" {
		t.Fatal("nil stream accessors not inert")
	}

	var r *Recorder
	if r.Active() {
		t.Fatal("nil recorder reports active")
	}
	if st := r.Stream(0, "cpu[0]"); st != nil {
		t.Fatal("nil recorder handed out a live stream")
	}
	if r.Len() != 0 || r.Streams() != nil || r.Merged() != nil {
		t.Fatal("nil recorder accessors not inert")
	}
}

func TestDisabledStreamRecordsNoAllocs(t *testing.T) {
	// The sequencer hot path guards with Active(); a disabled stream must
	// cost one nil compare and zero heap traffic, per the PR 4 budgets.
	var s *Stream
	allocs := testing.AllocsPerRun(1000, func() {
		if s.Active() {
			s.Record(OpStore, 0x100, 1, 2, 3)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled recording path allocates %v per op, want 0", allocs)
	}
}

func TestStreamReuseAndCoreOrder(t *testing.T) {
	r := NewRecorder()
	// Register out of core order; Stream must be idempotent per core.
	b := r.Stream(2, "acc[0]")
	a := r.Stream(0, "cpu[0]")
	if r.Stream(2, "acc[0]") != b {
		t.Fatal("Stream not idempotent for a core")
	}
	a.Record(OpStore, 0x40, 1, 0, 10)
	b.Record(OpLoad, 0x40, 1, 5, 20)
	streams := r.Streams()
	if len(streams) != 2 || streams[0] != a || streams[1] != b {
		t.Fatalf("Streams() not in core order: %v", streams)
	}
	if r.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", r.Len())
	}
}

func TestMergedOrderIndependentOfStreamCreation(t *testing.T) {
	build := func(order []int) []Rec {
		r := NewRecorder()
		for _, c := range order {
			s := r.Stream(c, "core")
			s.Record(OpStore, 0x100, byte(c+1), sim.Time(5), sim.Time(10))
			s.Record(OpLoad, 0x100, byte(c+1), sim.Time(10), sim.Time(10+c))
		}
		return r.Merged()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Merged order depends on stream creation order:\n%v\nvs\n%v", a, b)
	}
	for i := 1; i < len(a); i++ {
		p, q := a[i-1], a[i]
		if p.Done > q.Done || (p.Done == q.Done && p.Issued > q.Issued) ||
			(p.Done == q.Done && p.Issued == q.Issued && p.Core > q.Core) {
			t.Fatalf("Merged not in canonical (done, issued, core) order at %d: %v then %v", i, p, q)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for _, op := range []Op{OpLoad, OpStore, OpVerify} {
		got, ok := ParseOp(op.String())
		if !ok || got != op {
			t.Fatalf("ParseOp(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if Op(99).String() != "?" {
		t.Fatalf("unknown op renders %q", Op(99).String())
	}
	if _, ok := ParseOp("bogus"); ok {
		t.Fatal("ParseOp accepted garbage")
	}
}

func TestLogRoundTrip(t *testing.T) {
	r := NewRecorder()
	cpu := r.Stream(0, "cpu[0]")
	acc := r.Stream(1, "acc[0]")
	cpu.Record(OpStore, 0x10100, 0xd1, sim.Time(2), sim.Time(209))
	cpu.Record(OpVerify, 0x10100, 0xd1, sim.Time(250), sim.Time(300))
	acc.Record(OpLoad, 0x10140, 0x00, sim.Time(5), sim.Time(80))
	recs := r.Merged()

	var buf bytes.Buffer
	if err := WriteLog(&buf, 3, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), logHeader+"\n"+logColumns+"\n") {
		t.Fatalf("log missing header:\n%s", buf.String())
	}
	shards, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0].Shard != 3 {
		t.Fatalf("round trip shards = %+v", shards)
	}
	if !reflect.DeepEqual(shards[0].Recs, recs) {
		t.Fatalf("round trip lost records:\n%v\nvs\n%v", shards[0].Recs, recs)
	}
}

func TestLogWriterMultiShard(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	if err := lw.Add(0, []Rec{{Issued: 1, Done: 2, Addr: 0x40, Op: OpStore, Val: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := lw.Add(2, []Rec{{Issued: 3, Done: 4, Addr: 0x80, Core: 1, Op: OpLoad, Val: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	shards, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || shards[0].Shard != 0 || shards[1].Shard != 2 {
		t.Fatalf("multi-shard round trip = %+v", shards)
	}
}

// garbageLogs are inputs ReadLog must refuse (FuzzReadLog seeds them too).
var garbageLogs = map[string]string{
	"no header":    "0 0 store 0x40 0x01 1 2\n",
	"wrong header": "# nope v9\n0 0 store 0x40 0x01 1 2\n",
	"v1 header":    "# xgobs v1\n0 0 store 0x40 0x01 1 2\n",
	"short line":   logHeader + "\n0 0 store 0x40\n",
	"bad op":       logHeader + "\n0 0 smash 0x40 0x01 1 2\n",
	"bad addr":     logHeader + "\n0 0 store zz 0x01 1 2\n",
	"empty":        "",
}

func TestReadLogRejectsGarbage(t *testing.T) {
	for name, in := range garbageLogs {
		if _, err := ReadLog(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadLog accepted malformed input", name)
		}
	}
}

func TestTail(t *testing.T) {
	recs := []Rec{
		{Issued: 1, Done: 2, Addr: 0x40, Op: OpStore, Val: 5},
		{Issued: 3, Done: 4, Addr: 0x40, Op: OpLoad, Val: 5, Core: 1},
		{Issued: 5, Done: 6, Addr: 0x80, Op: OpVerify, Val: 9},
	}
	out := Tail(recs, 2)
	if !strings.Contains(out, "last 2 of 3 records") {
		t.Fatalf("tail header wrong:\n%s", out)
	}
	if strings.Contains(out, "t=1..2") || !strings.Contains(out, "t=5..6") {
		t.Fatalf("tail kept wrong records:\n%s", out)
	}
	if Tail(nil, 5) != "" || Tail(recs, 0) != "" {
		t.Fatal("empty tail not empty")
	}
}
