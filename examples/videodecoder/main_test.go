package main

import (
	"testing"

	"crossingguard/examples/internal/capture"
)

// want is the example's whole output: the traffic breakdown, with the PutS share the
// paper reports as about 1-4 % (3.93 % here), and each guard's PutS and
// snoop counts.
const want = `video decoder on hammer/xg-full/1L
  frames streamed:          8000 accesses across 2 cores
  makespan:                 281578 ticks
  mean access latency:      70.4 ticks (accel), 9.6 (CPU)
  boundary traffic:         160464 bytes
  PutS share of accel->XG:  3.93%  (paper reports ~1-4%)
  guard[0]: PutS suppressed toward host=133, snoops filtered=1466
  guard[1]: PutS suppressed toward host=133, snoops filtered=1414
`

// TestOutput runs the example and compares what it prints.
func TestOutput(t *testing.T) {
	if got := capture.Stdout(t, main); got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
}
