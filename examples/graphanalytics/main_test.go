package main

import (
	"testing"

	"crossingguard/examples/internal/capture"
)

// want is the example's whole output: the two-level run's makespan, latency, boundary
// traffic and the Full State guard's storage in use.
const want = `graph analytics on mesi/xg-full/2L (4 accel cores, shared accel L2)
  edges chased:              12000 data-dependent accesses
  makespan:                  101063 ticks
  mean accel access latency: 33.7 ticks
  boundary traffic:          48064 bytes (ONE guard for all 4 cores)
  core-to-core transfers handled inside the accelerator: 654
  guard storage in use:      3108 bytes (FullState)
`

// TestOutput runs the example and compares what it prints.
func TestOutput(t *testing.T) {
	if got := capture.Stdout(t, main); got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
}
