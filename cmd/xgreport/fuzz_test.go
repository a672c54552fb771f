package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"crossingguard/internal/obs"
)

// FuzzReport feeds xgreport arbitrary input. Reading must never panic; an
// input it accepts must re-encode with json.Marshal and read back equal,
// and both the report and a -diff of it, against itself and against an
// empty baseline, must render without panicking. Seeded with a real
// xgcampaign -metrics file (two devices, quarantine and recovery) and with
// inputs the reader must refuse.
func FuzzReport(f *testing.F) {
	real, err := os.ReadFile("testdata/recovery-metrics.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(real))
	for _, in := range []string{
		`{"counters": {"guard.violation.XG.G2b": 1}}{"counters": {"guard.violation.XG.G2b": 3}}`,
		`{"counters": {}} trailing`,
		`null`,
		`[{"counters": {}}]`,
		`{"counters": {"guard.violation.XG.G2b@a7": 2, "guard.recovery.permanent@a": 1}, "histograms": {"xg.crossing.ticks": {"n": -1}}}`,
		`{"gauges": {"net.inflight": {"value": -5, "max": 3}}}`,
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := obs.ReadSnapshot(strings.NewReader(in))
		if err != nil {
			return
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		again, err := obs.ReadSnapshot(strings.NewReader(string(b)))
		if err != nil {
			t.Fatalf("re-encoded snapshot is refused: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("re-encoded snapshot reads back different:\n%+v\n%+v", s, again)
		}
		render(io.Discard, s)
		renderDiff(io.Discard, s, s)
		renderDiff(io.Discard, obs.Snapshot{}, s)
	})
}
