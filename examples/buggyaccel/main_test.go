package main

import (
	"testing"

	"crossingguard/examples/internal/capture"
)

// want is the example's whole output: the attack's tally: no failed check, no hang, the
// accelerator quarantined and every violation classified by guarantee.
const want = `a malicious accelerator attacked the host through Crossing Guard:
  attacker messages sent:      4000
  CPU read-after-write checks: 1200, failures: 0
  host deadlocked or crashed:  no
  accelerator quarantined:     true
  timeouts answered for it:    0

violations detected and classified (paper Figure 1 guarantees):
  XG.BadMessage       635
  XG.G0a              249
  XG.G2b              169
  XG.Quarantined        1
`

// TestOutput runs the example and compares what it prints.
func TestOutput(t *testing.T) {
	if got := capture.Stdout(t, main); got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
}
