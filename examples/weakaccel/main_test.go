package main

import (
	"testing"

	"crossingguard/examples/internal/capture"
)

// want is the example's whole output: the weak model inside the
// accelerator, exact coherence toward the host, and a clean audit.
const want = `accel1: cached 0
accel0: wrote 55 locally (not flushed)
accel1: still sees 0  <- weak model, by design
cpu0:   sees 55    <- host coherence is exact
accel1: sees 55    <- after flush

host-side coherence audit clean; zero guard violations
`

// TestOutput runs the example and compares what it prints.
func TestOutput(t *testing.T) {
	if got := capture.Stdout(t, main); got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
}
