// Package explore systematically sweeps the timing of targeted race
// scenarios. The paper chose randomized stress testing over model
// checking (§4.1) because exhaustive methods did not scale to its
// heterogeneous system; this package is the tractable middle ground: for
// each named race (the Put/Inv race of §2.1, upgrade-vs-invalidate,
// evict-and-refetch, and a three-way CPU/CPU/accel conflict) it runs the
// REAL implementation across a grid of injection offsets, so every
// interleaving the offsets can produce is exercised deterministically
// and checked against the full system audit.
package explore

import (
	"errors"
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/mem"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
)

// Scenario is one parameterized race: build a system, then fire the
// conflicting operations at the given relative offset (in ticks).
type Scenario struct {
	Name string
	// Run arms the race on sys with the second party delayed by offset
	// ticks, and returns a verification callback executed after quiesce.
	Run func(sys *config.System, offset sim.Time) (verify func() error)
	// Build, when set, replaces config.Build for the scenario — used by
	// quarantine scenarios that attach a scripted hostile accelerator via
	// Spec.CustomAccel.
	Build func(spec config.Spec) *config.System
	// ExpectViolations marks scenarios that deliberately provoke
	// guarantee violations (a hostile accelerator driving the guard into
	// quarantine). The sweep then validates host-side health only —
	// host transactions drained, host audit clean — and leaves the
	// violation log to the scenario's own verify callback; the full-system
	// zero-violations assertion would reject every point by construction.
	ExpectViolations bool
}

// Result summarizes one sweep.
type Result struct {
	Scenario string
	Spec     config.Spec
	Points   int
	Failures []string
}

// Sweep runs scenario at every offset in [0, maxOffset] against the
// given spec: a just-built system per point, closed once the point is
// judged, so the next point's Build resets the same machine in place.
func Sweep(spec config.Spec, sc Scenario, maxOffset sim.Time) Result {
	res := Result{Scenario: sc.Name, Spec: spec}
	build := config.Build
	if sc.Build != nil {
		build = sc.Build
	}
	for off := sim.Time(0); off <= maxOffset; off++ {
		res.Points++
		if err := runPoint(build(spec), sc, off); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s offset=%d: %v", sc.Name, off, err))
		}
	}
	return res
}

// runPoint runs sc at offset off on sys and judges the point, then closes
// sys.
func runPoint(sys *config.System, sc Scenario, off sim.Time) error {
	defer sys.Close()
	verify := sc.Run(sys, off)
	if !sys.Eng.RunUntil(20_000_000) {
		return errors.New("engine did not drain")
	}
	outstanding, audit := sys.Outstanding, sys.Audit
	if sc.ExpectViolations {
		outstanding, audit = sys.HostOutstanding, sys.AuditHostOnly
	}
	if n := outstanding(); n != 0 {
		return fmt.Errorf("%d transactions outstanding (deadlock)", n)
	}
	if err := audit(); err != nil {
		return fmt.Errorf("audit: %v", err)
	}
	if !sc.ExpectViolations && sys.Log.Count() != 0 {
		return fmt.Errorf("protocol errors: %v", sys.Log.Errors[0])
	}
	var undeclared error
	sys.Coverages(func(cov *coherence.Coverage) {
		if undeclared == nil && len(cov.Unexpected) > 0 {
			undeclared = fmt.Errorf("%s visited undeclared transitions %v", cov.Name(), cov.Unexpected)
		}
	})
	if undeclared != nil {
		return undeclared
	}
	if verify != nil {
		return verify()
	}
	return nil
}

const raceLine = mem.Addr(0x7000)

// fillSet issues enough conflicting fills to evict raceLine from the
// accelerator's (small) cache; used to arm replacement-based races.
// With Small caches the accel L1 is 2 sets x 2 ways: lines 128 bytes
// apart collide.
func fillSet(sq *seq.Sequencer, n int, cb func()) {
	if n == 0 {
		cb()
		return
	}
	sq.Store(raceLine+mem.Addr(n*128), byte(n), func(*seq.Op) { fillSet(sq, n-1, cb) })
}

// putVsInv is the put-vs-inv scenario's state, one point at a time: its
// callbacks are bound once, so a point allocates nothing and a sweep on a
// machine that is reset per point allocates nothing at all once warm
// (TestPutVsInvPointAllocFree).
type putVsInv struct {
	sys    *config.System
	off    sim.Time
	fill   mem.Addr // lines of raceLine's set still to fill, counting down
	cpuSaw byte

	stored, filled, loaded func(*seq.Op)
	claim                  func()
	verify                 func() error
}

func newPutVsInv() *putVsInv {
	p := &putVsInv{}
	p.stored, p.filled, p.loaded = p.onStored, p.onFilled, p.onLoaded
	p.claim, p.verify = p.onClaim, p.check
	return p
}

func (p *putVsInv) run(sys *config.System, off sim.Time) func() error {
	p.sys, p.off, p.fill, p.cpuSaw = sys, off, 2, 255
	sys.AccelSeqs[0].Store(raceLine, 11, p.stored)
	return p.verify
}

// onStored evicts raceLine by filling its set (as fillSet does); at the
// swept offset, a CPU claims the line.
func (p *putVsInv) onStored(*seq.Op) {
	p.onFilled(nil)
	p.sys.Eng.Schedule(p.off, p.claim)
}

func (p *putVsInv) onFilled(*seq.Op) {
	if n := p.fill; n > 0 {
		p.fill--
		p.sys.AccelSeqs[0].Store(raceLine+n*128, byte(n), p.filled)
	}
}

func (p *putVsInv) onClaim()            { p.sys.CPUSeqs[0].Load(raceLine, p.loaded) }
func (p *putVsInv) onLoaded(op *seq.Op) { p.cpuSaw = op.Result }

func (p *putVsInv) check() error {
	if p.cpuSaw != 11 {
		return fmt.Errorf("CPU read %d, want 11 (put data lost in the race)", p.cpuSaw)
	}
	return nil
}

// Scenarios returns the named races. A scenario may keep its points' state
// in itself: sweep one value from one goroutine at a time.
func Scenarios() []Scenario {
	return []Scenario{
		{
			// The §2.1 race: "all races between the accelerator except
			// between an accelerator Put and a host Invalidate request"
			// — the accelerator evicts a modified line while a CPU
			// writes the same line.
			Name: "put-vs-inv",
			Run:  newPutVsInv().run,
		},
		{
			// The accelerator upgrades S->M while a CPU writes: the
			// guard must invalidate the accelerator's stale S copy and
			// still deliver fresh data to the upgrade.
			Name: "upgrade-vs-inv",
			Run: func(sys *config.System, off sim.Time) func() error {
				var accelSaw, cpuSaw = byte(255), byte(255)
				done := false
				sys.AccelSeqs[0].Load(raceLine, func(*seq.Op) { // accel caches S
					sys.AccelSeqs[0].Store(raceLine, 21, func(*seq.Op) {
						sys.AccelSeqs[0].Load(raceLine, func(op *seq.Op) {
							accelSaw = op.Result
							sys.CPUSeqs[1].Load(raceLine, func(op *seq.Op) {
								cpuSaw = op.Result
								done = true
							})
						})
					})
					sys.Eng.Schedule(off, func() {
						sys.CPUSeqs[0].Store(raceLine, 99, nil)
					})
				})
				return func() error {
					if !done {
						return fmt.Errorf("sequence never completed")
					}
					// Both writes happened; coherence order decides, but
					// the accel's own read must see ITS value unless the
					// CPU overwrote after (both serializations legal);
					// the final CPU read must match the last writer.
					if accelSaw != 21 && accelSaw != 99 {
						return fmt.Errorf("accel read %d, want 21 or 99", accelSaw)
					}
					if cpuSaw != 21 && cpuSaw != 99 {
						return fmt.Errorf("CPU read %d, want 21 or 99", cpuSaw)
					}
					return nil
				}
			},
		},
		{
			// Evict then refetch immediately: the guard must serialize
			// the accelerator's Get behind its own writeback so the
			// refetch observes the written-back data.
			Name: "evict-refetch",
			Run: func(sys *config.System, off sim.Time) func() error {
				var saw = byte(255)
				sys.AccelSeqs[0].Store(raceLine, 31, func(*seq.Op) {
					fillSet(sys.AccelSeqs[0], 2, func() {})
					sys.Eng.Schedule(off, func() {
						sys.AccelSeqs[0].Load(raceLine, func(op *seq.Op) { saw = op.Result })
					})
				})
				return func() error {
					if saw != 31 {
						return fmt.Errorf("refetch read %d, want 31", saw)
					}
					return nil
				}
			},
		},
		{
			// Three-way conflict: two CPUs and the accelerator write the
			// same line in a swept alignment; afterwards everyone must
			// agree on a single final value.
			Name: "three-writers",
			Run: func(sys *config.System, off sim.Time) func() error {
				vals := make([]byte, 3)
				reads := 0
				readAll := func() {
					for i, sq := range []*seq.Sequencer{sys.CPUSeqs[0], sys.CPUSeqs[1], sys.AccelSeqs[0]} {
						i, sq := i, sq
						sq.Load(raceLine, func(op *seq.Op) { vals[i] = op.Result; reads++ })
					}
				}
				writes := 0
				wrote := func(*seq.Op) {
					writes++
					if writes == 3 {
						readAll()
					}
				}
				sys.CPUSeqs[0].Store(raceLine, 41, wrote)
				sys.Eng.Schedule(off, func() { sys.CPUSeqs[1].Store(raceLine, 42, wrote) })
				sys.Eng.Schedule(2*off, func() { sys.AccelSeqs[0].Store(raceLine, 43, wrote) })
				return func() error {
					if reads != 3 {
						return fmt.Errorf("only %d final reads completed", reads)
					}
					if vals[0] != vals[1] || vals[1] != vals[2] {
						return fmt.Errorf("divergent final values %v (convergence failed)", vals)
					}
					if vals[0] != 41 && vals[0] != 42 && vals[0] != 43 {
						return fmt.Errorf("final value %d is none of the written values", vals[0])
					}
					return nil
				}
			},
		},
	}
}
