package coherence

import (
	"testing"

	"crossingguard/internal/raceflag"
)

// A recycled log's array goes, cleared, to the next log that reports an
// error: that log starts empty, counts from zero and holds nothing of the
// last owner's errors, not even past its length.
func TestErrorLogRecycle(t *testing.T) {
	// Several arrays, so that one is found again whichever processor the
	// test goroutine runs on next.
	for i := 0; i < 4; i++ {
		old := NewErrorLog()
		for j := 0; j < 100; j++ {
			old.ReportError(ProtocolError{Where: "old", Code: "XG.G0a", Detail: "stale"})
		}
		old.Recycle()
		if old.Count() != 0 || len(old.ByCode) != 0 || cap(old.Errors) != 0 {
			t.Fatalf("a recycled log still holds %d errors, %d codes, room for %d",
				old.Count(), len(old.ByCode), cap(old.Errors))
		}
		old.Recycle() // twice is harmless
	}
	l := NewErrorLog()
	l.ReportError(ProtocolError{Where: "new", Code: "XG.G1b"})
	if l.Count() != 1 || l.ByCode["XG.G1b"] != 1 || l.ByCode["XG.G0a"] != 0 {
		t.Fatalf("the next log counts %d errors, by code %v", l.Count(), l.ByCode)
	}
	if !raceflag.Enabled && cap(l.Errors) < 100 {
		t.Fatalf("the next log grew a fresh array (room for %d), not a recycled one", cap(l.Errors))
	}
	for i, e := range l.Errors[1:cap(l.Errors)] {
		if e != (ProtocolError{}) {
			t.Fatalf("slot %d of the recycled array still holds %v", i+1, e)
		}
	}
}
