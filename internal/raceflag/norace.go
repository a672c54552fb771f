//go:build !race

// Package raceflag reports whether the race detector is compiled in.
// Allocation-budget tests skip under it: its instrumentation allocates.
package raceflag

// Enabled is true in -race builds.
const Enabled = false
