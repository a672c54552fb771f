package coherence

import (
	"testing"

	"crossingguard/internal/mem"
)

// A reset log keeps its array for the next run's errors: it starts empty,
// counts from zero and holds nothing of the last run's errors, not even
// past its length.
func TestErrorLogRecycle(t *testing.T) {
	l := NewErrorLog()
	for j := 0; j < 100; j++ {
		l.ReportError(ProtocolError{Where: "old", Code: "XG.G0a", Detail: "stale"})
	}
	room := cap(l.Errors)
	l.Reset()
	if l.Count() != 0 || len(l.ByCode) != 0 {
		t.Fatalf("a reset log still holds %d errors, %d codes", l.Count(), len(l.ByCode))
	}
	l.Reset() // twice is harmless
	l.ReportError(ProtocolError{Where: "new", Code: "XG.G1b"})
	if l.Count() != 1 || l.ByCode["XG.G1b"] != 1 || l.ByCode["XG.G0a"] != 0 {
		t.Fatalf("the reset log counts %d errors, by code %v", l.Count(), l.ByCode)
	}
	if cap(l.Errors) != room {
		t.Fatalf("the reset log grew a fresh array (room for %d), not its own (%d)", cap(l.Errors), room)
	}
	for i, e := range l.Errors[1:cap(l.Errors)] {
		if e != (ProtocolError{}) {
			t.Fatalf("slot %d of the reset array still holds %v", i+1, e)
		}
	}
}

// However many errors come, the log counts all of them exactly, in total
// and per code, keeps the first 8 in order, and allocates nothing after
// the first report.
func TestErrorLogBounded(t *testing.T) {
	l := NewErrorLog()
	codes := []string{"XG.G1a", "XG.G1b", "XG.G2c"}
	report := func(i int) {
		l.ReportError(ProtocolError{Where: "xg", Code: codes[i%len(codes)], Addr: mem.Addr(i)})
	}
	report(0)
	i := 1
	// AllocsPerRun calls once more than it measures: 1 + 1 + 9 998 reports.
	if n := testing.AllocsPerRun(9_998, func() { report(i); i++ }); n != 0 {
		t.Fatalf("a report past the first allocates %.1f objects", n)
	}
	if l.Count() != 10_000 {
		t.Fatalf("Count = %d, want 10000", l.Count())
	}
	for j, code := range codes {
		if want := uint64((10_000 + len(codes) - 1 - j) / len(codes)); l.ByCode[code] != want {
			t.Fatalf("ByCode[%s] = %d, want %d", code, l.ByCode[code], want)
		}
	}
	if len(l.Errors) != 8 {
		t.Fatalf("the log keeps %d errors, want the first 8", len(l.Errors))
	}
	for j, e := range l.Errors {
		if e.Addr != mem.Addr(j) || e.Code != codes[j%len(codes)] {
			t.Fatalf("Errors[%d] = %v, want report %d", j, e, j)
		}
	}
}
