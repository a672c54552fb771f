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
