package coherence

import (
	"reflect"
	"strings"
	"testing"

	"crossingguard/internal/mem"
	"crossingguard/internal/raceflag"
)

func TestMsgTypeStrings(t *testing.T) {
	// Every declared type must have a unique, non-placeholder name;
	// missing entries in msgTypeNames would hide bugs in traces.
	seen := make(map[string]MsgType)
	for ty := MsgType(1); ty < numMsgTypes; ty++ {
		s := ty.String()
		if strings.HasPrefix(s, "MsgType(") || s == "" {
			t.Errorf("type %d has no name", int(ty))
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("name %q reused by %d and %d", s, prev, ty)
		}
		seen[s] = ty
	}
	if got := MsgType(9999).String(); got != "MsgType(9999)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestAccelInterfaceArity(t *testing.T) {
	// The paper defines exactly 5 accelerator requests and 3 accelerator
	// responses; guard this so the interface cannot silently grow.
	var reqs, resps []MsgType
	for ty := MsgType(1); ty < numMsgTypes; ty++ {
		if ty.IsAccelRequest() {
			reqs = append(reqs, ty)
		}
		if ty.IsAccelResponse() {
			resps = append(resps, ty)
		}
	}
	if len(reqs) != 5 {
		t.Errorf("accel requests = %v, want 5", reqs)
	}
	if len(resps) != 3 {
		t.Errorf("accel responses = %v, want 3", resps)
	}
}

func TestMsgBytes(t *testing.T) {
	m := &Msg{Type: AGetS, Addr: 0x40}
	if m.Bytes() != ControlBytes {
		t.Errorf("control msg bytes = %d", m.Bytes())
	}
	m.Data = mem.Zero()
	if m.Bytes() != ControlBytes+DataBytes {
		t.Errorf("data msg bytes = %d", m.Bytes())
	}
}

func TestCarriesDataConsistency(t *testing.T) {
	// Data-bearing accelerator-interface messages per the paper:
	// PutM/PutE carry data; DataS/DataE/DataM carry data; Clean/Dirty WB
	// carry data; GetS/GetM/PutS/WBAck/Inv/InvAck do not.
	wantData := map[MsgType]bool{
		AGetS: false, AGetM: false, APutM: true, APutE: true, APutS: false,
		ADataS: true, ADataE: true, ADataM: true, AWBAck: false,
		AInv: false, AInvAck: false, ACleanWB: true, ADirtyWB: true,
	}
	for ty, want := range wantData {
		if got := ty.CarriesData(); got != want {
			t.Errorf("%v.CarriesData() = %v, want %v", ty, got, want)
		}
	}
}

func TestMsgString(t *testing.T) {
	m := &Msg{Type: HData, Addr: 0x1240, Src: 3, Dst: 1, Requestor: 1,
		Data: mem.Zero(), Dirty: true, Acks: 2, Shared: true}
	s := m.String()
	for _, frag := range []string{"H:Data", "0x1240", "3->1", "+data(dirty)", "acks=2", "shared"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

// testTable is a small class vocabulary for the coverage tests: states
// and local events by the constants below, then two message events.
var testTable = NewTable(
	[]string{tI: "I", tS: "S", tE: "E", tM: "M", tO: "O", tSBusy: "S+busy"},
	[]string{tLoad: "Load", tStore: "Store", tInv: "Inv", tRepl: "Repl"},
	HFwdGetS, HNack)

const (
	tI = iota
	tS
	tE
	tM
	tO
	tSBusy
)

const (
	tLoad = iota
	tStore
	tInv
	tRepl
)

func TestTableEvents(t *testing.T) {
	if got, want := testTable.Events(), []string{"Load", "Store", "Inv", "Repl", "H:FwdGetS", "H:Nack"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Events = %v, want %v", got, want)
	}
	if got := testTable.Event(HNack); got != 5 {
		t.Errorf("Event(H:Nack) = %d, want 5", got)
	}
	if got := testTable.Event(MGetS); got != -1 {
		t.Errorf("Event(M:GetS) = %d, want -1: the table has no such event", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Record of an event outside the table did not panic")
		}
	}()
	NewCoverage("L1", testTable).Record(tI, testTable.Event(MGetS))
}

// testCoverage is testTable's coverage declaring states x events, built
// as every controller's is: from the cells of a Rules table.
func testCoverage(states, events []int) *Coverage {
	var rows []Row[int, struct{}]
	for _, st := range states {
		rows = append(rows, Row[int, struct{}]{St: st, Evs: events})
	}
	return NewRules("L1", testTable, rows).Coverage()
}

func TestCoverageDeclareRecord(t *testing.T) {
	c := testCoverage([]int{tI, tS}, []int{tLoad, tInv})
	if c.Possible() != 4 {
		t.Fatalf("Possible = %d", c.Possible())
	}
	c.Record(tI, tLoad)
	c.Record(tI, tLoad)
	c.Record(tS, tInv)
	if c.Visited() != 2 || c.Visits() != 3 {
		t.Fatalf("Visited=%d Visits=%d", c.Visited(), c.Visits())
	}
	missing := c.Missing()
	if len(missing) != 2 {
		t.Fatalf("Missing = %v", missing)
	}
	if len(c.Unexpected) != 0 {
		t.Fatalf("Unexpected = %v", c.Unexpected)
	}
	c.Record(tM, tLoad) // undeclared
	if len(c.Unexpected) != 1 || c.Unexpected[0] != "M/Load" {
		t.Fatalf("Unexpected = %v", c.Unexpected)
	}
}

func TestCoverageMerge(t *testing.T) {
	a := testCoverage([]int{tI}, []int{tLoad})
	a.Record(tI, tLoad)
	b := NewCoverage("L1", testTable)
	b.Record(tI, tLoad)
	b.Record(tS, tInv)
	a.Merge(b)
	if a.Visits() != 3 || a.Visited() != 2 {
		t.Fatalf("after merge: Visits=%d Visited=%d", a.Visits(), a.Visited())
	}
	defer func() {
		if recover() == nil {
			t.Error("merging a coverage of another table did not panic")
		}
	}()
	a.Merge(NewCoverage("L2", NewTable([]string{"NP"}, nil, MGetS)))
}

// Coverage counts by (state, event) index; every string a report or an
// aggregator sees keeps the "state/event" form, and a bare coverage takes
// the table and the declarations of what is merged into it.
func TestCoverageRenderedStrings(t *testing.T) {
	a := testCoverage([]int{tI, tSBusy}, []int{tLoad, testTable.Event(HFwdGetS)})
	a.Record(tI, tLoad)
	a.Record(tSBusy, testTable.Event(HFwdGetS))
	a.Record(tSBusy, testTable.Event(HFwdGetS))
	a.Record(tM, testTable.Event(HNack)) // undeclared
	b := testCoverage([]int{tE}, []int{tStore})
	b.Record(tI, tLoad) // undeclared in b: b declares only E/Store
	b.Record(tO, tRepl)
	bare := NewCoverage("L1", nil)
	bare.Merge(a)
	bare.Merge(b)
	a.Merge(b)

	for name, c := range map[string]*Coverage{"merged": a, "bare": bare} {
		if got, want := c.Snapshot(), map[string]uint64{
			"I/Load": 2, "S+busy/H:FwdGetS": 2, "M/H:Nack": 1, "O/Repl": 1,
		}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Snapshot = %v, want %v", name, got, want)
		}
		if got, want := c.Missing(), []string{"E/Store", "I/H:FwdGetS", "S+busy/Load"}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Missing = %v, want %v", name, got, want)
		}
		if got, want := c.Unexpected, []string{"M/H:Nack", "I/Load", "O/Repl"}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Unexpected = %v, want %v", name, got, want)
		}
		if got, want := c.Summary(), "L1                4/5    pairs ( 80.0%), 6 visits, 3 unexpected"; got != want {
			t.Errorf("%s: Summary = %q, want %q", name, got, want)
		}
	}
}

// Record runs on every protocol transition: it must not allocate, with or
// without the obs hook.
func TestCoverageRecordAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, hooked := range []bool{false, true} {
		c := testCoverage([]int{tI, tS}, []int{tLoad, tInv})
		seen := 0
		if hooked {
			c.OnRecord = func(state, event int) { seen++ }
		}
		if n := testing.AllocsPerRun(1000, func() { c.Record(tS, tInv) }); n != 0 {
			t.Errorf("Record (OnRecord hooked=%v): %v allocs/op, want 0", hooked, n)
		}
		if hooked && seen == 0 {
			t.Error("OnRecord never called")
		}
	}
}

func TestReplyCompletesTheRequestInPlace(t *testing.T) {
	for _, c := range []struct{ req, resp MsgType }{{ReqLoad, RespLoad}, {ReqStore, RespStore}} {
		req := &Msg{Type: c.req, Addr: 0x1234, Src: 7, Dst: 9, Val: 55, Tag: 42}
		got := Reply(req, 9, 3)
		if got != req {
			t.Fatalf("%v: Reply made a new message", c.req)
		}
		if want := (Msg{Type: c.resp, Addr: 0x1234, Src: 9, Dst: 7, Val: 3, Tag: 42}); *got != want {
			t.Fatalf("%v: reply is %+v, want %+v", c.req, *got, want)
		}
	}
}
