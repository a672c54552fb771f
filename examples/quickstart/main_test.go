package main

import (
	"testing"

	"crossingguard/examples/internal/capture"
)

// want is the example's whole output: the values each side sees, the end tick, and the
// guard's table and snoop counts.
const want = `cpu0:   stored 7
accel0: loaded 7 through the guard
accel0: stored 42 (acquired M through the guard)
cpu1:   loaded 42 (accelerator's copy recalled)

all coherent after 899 simulated ticks; audit clean
guard[0]: mode=FullState, blocks tracked=0, snoops filtered=0, forwarded=1
`

// TestOutput runs the example and compares what it prints.
func TestOutput(t *testing.T) {
	if got := capture.Stdout(t, main); got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
}
