package main

import (
	"testing"

	"crossingguard/examples/internal/capture"
)

// want is the example's whole output: every cross-device hand-off on both guard variants
// and a clean system-wide audit.
const want = `mesi/xg-full/1L/a2: two devices, 4 FullState guards
  device 0 core 0: wrote 3
  device 1 core 0: read 3 across two guards
  device 1 core 1: wrote 21
  cpu 0:           read 21
  cpu 1:           wrote 28
  device 0 core 1: read 28
mesi/xg-txn/2L/a2: two devices, 2 Transactional guards
  device 0 core 0: wrote 3
  device 1 core 0: read 3 across two guards
  device 1 core 1: wrote 21
  cpu 0:           read 21
  cpu 1:           wrote 28
  device 0 core 1: read 28
system-wide coherence audit clean
`

// TestOutput runs the example and compares what it prints.
func TestOutput(t *testing.T) {
	if got := capture.Stdout(t, main); got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
}
