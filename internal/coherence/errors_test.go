package coherence

import "testing"

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

// Trim lets go of a large array only when the last run left it mostly
// empty: a log that needed its room keeps it, and a small one is kept
// whatever it held.
func TestErrorLogTrim(t *testing.T) {
	fill := func(l *ErrorLog, n int) {
		l.Reset()
		for j := 0; j < n; j++ {
			l.ReportError(ProtocolError{Code: "XG.G1a"})
		}
	}
	l := NewErrorLog()
	fill(l, 2000)
	l.Trim(256)
	if cap(l.Errors) < 2000 {
		t.Fatalf("Trim dropped the array its last run filled (cap %d)", cap(l.Errors))
	}
	fill(l, 26)
	l.Trim(256)
	if l.Errors != nil {
		t.Fatalf("Trim kept a %d-entry array its last run filled 26 of", cap(l.Errors))
	}
	fill(l, 3)
	l.Trim(256)
	if l.Errors == nil {
		t.Fatal("Trim dropped an array within the bound")
	}
	fill(l, 40)
	if l.Count() != 40 || l.ByCode["XG.G1a"] != 40 {
		t.Fatalf("after Trim the log counts %d errors, %d by code", l.Count(), l.ByCode["XG.G1a"])
	}
}
