// Package crossingguard is a from-scratch Go reproduction of
//
//	Lena E. Olson, Mark D. Hill, David A. Wood.
//	"Crossing Guard: Mediating Host-Accelerator Coherence Interactions."
//	ASPLOS 2017.
//
// Crossing Guard is trusted host hardware that gives third-party
// accelerators a tiny, standardized coherence interface (five requests,
// four responses out; one request, three responses back) and translates
// it to the host's real coherence protocol, while guaranteeing that even
// a pathologically buggy or malicious accelerator can never crash,
// deadlock, or corrupt the host coherence system.
//
// The repository contains a deterministic discrete-event coherence
// simulator with two host protocols (an AMD-Hammer-like exclusive MOESI
// broadcast protocol and an inclusive MESI two-level protocol), the
// Crossing Guard itself in Full State and Transactional variants, two
// accelerator cache hierarchies that speak the interface, a Border-
// Control-style page-permission substrate, the paper's random protocol
// stress tester and guard fuzzer, synthetic GPGPU-style workloads, and a
// benchmark harness that regenerates every table and figure of the
// evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// Start with the runnable examples:
//
//	go run ./examples/quickstart     // build a system, share data across the boundary
//	go run ./examples/videodecoder   // a streaming accelerator behind the guard
//	go run ./examples/graphanalytics // data-dependent accesses on the 2-level hierarchy
//	go run ./examples/buggyaccel     // watch the guard contain a malicious accelerator
//
// and the evaluation drivers:
//
//	go run ./cmd/xgsim                   // every single-machine experiment (E1, E2, E5-E12, A1-A4)
//	go run ./cmd/xgcampaign -mode stress // the paper's random protocol stress test (E3)
//	go run ./cmd/xgcampaign -mode fuzz   // the paper's guard fuzz testing (E4)
//	go run ./cmd/xgcampaign -mode chaos  // adversarial models over a faulty crossing
//
// # Concurrency contract
//
// The simulator is deterministic because it is single-threaded: one
// sim.Engine owns one event queue and everything hanging off it — the
// fabric, the caches, the guard, the sequencers, the per-system RNGs.
// None of it is locked, and none of it may be shared. The rule is
//
//	one engine per goroutine, no sharing
//
// Parallelism happens one level up: internal/campaign runs many fully
// independent (configuration, seed) simulations, each confined to its
// own goroutine with its own engine, fabric, backing store, and RNGs,
// and merges the results in deterministic shard order afterwards. Any
// code that hands a System, Engine, Fabric, or Sequencer to another
// goroutine while the owning goroutine is still stepping it is wrong;
// `go test -race ./internal/...` is part of the verification loop to
// keep it that way.
package crossingguard
