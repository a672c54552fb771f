// Package explore systematically sweeps the timing of targeted race
// scenarios. The paper chose randomized stress testing over model
// checking (§4.1) because exhaustive methods did not scale to its
// heterogeneous system; this package is the tractable middle ground: for
// each named race (the Put/Inv race of §2.1, upgrade-vs-invalidate,
// evict-and-refetch, and a three-way CPU/CPU/accel conflict) it runs the
// REAL implementation at every vector of timing choices up to a bound,
// so every interleaving the choices can produce is exercised
// deterministically and checked against the full system audit.
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

// Choose answers a scenario's next open timing choice: a delay in ticks,
// at most the sweep's bound.
type Choose func() sim.Time

// Scenario is one parameterized race: build a system, then fire the
// conflicting operations at the delays its choices answer.
type Scenario struct {
	Name string
	// Run arms the race on sys, asking choose for each timing it leaves
	// open, and returns a verification callback executed after quiesce.
	Run func(sys *config.System, choose Choose) (verify func() error)
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
	Points   int
	Failures []string
}

// Sweep runs scenario once for every vector of answers in [0, bound] to
// the choices it asks, against the given spec: a just-built system per
// point, closed once the point is judged, so the next point's Build
// resets the same machine in place. The vectors come in lexicographic
// order, last choice fastest. Each point replays its vector from the
// first choice and answers 0 to any choice past it, so a scenario may
// ask a different number of choices depending on earlier answers; the
// next vector advances the last choice the point asked that is below
// bound and drops those after it.
func Sweep(spec config.Spec, sc Scenario, bound sim.Time) Result {
	var res Result
	build := config.Build
	if sc.Build != nil {
		build = sc.Build
	}
	var vec []sim.Time
	asked := 0
	choose := func() sim.Time {
		if asked == len(vec) {
			vec = append(vec, 0)
		}
		asked++
		return vec[asked-1]
	}
	for {
		asked = 0
		res.Points++
		if err := runPoint(build(spec), sc, choose); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s choices=%v: %v", sc.Name, vec[:asked], err))
		}
		vec = vec[:asked]
		for len(vec) > 0 && vec[len(vec)-1] >= bound {
			vec = vec[:len(vec)-1]
		}
		if len(vec) == 0 {
			return res
		}
		vec[len(vec)-1]++
	}
}

// runPoint runs sc on sys with its choices answered by choose and judges
// the point, then closes sys.
func runPoint(sys *config.System, sc Scenario, choose Choose) error {
	defer sys.Close()
	verify := sc.Run(sys, choose)
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

// evictRace is the state of the two races that evict the accelerator's
// dirty copy of raceLine and, at a chosen delay, read the line back:
// put-vs-inv reads it from a CPU, evict-refetch from the accelerator
// itself. Its callbacks are bound once, so a point allocates nothing and
// a sweep on a machine that is reset per point allocates nothing per
// point once warm (TestPutVsInvPointAllocFree).
type evictRace struct {
	val      byte // what the accelerator stores, and the reader must see
	cpuReads bool
	sys      *config.System
	at       sim.Time
	fill     mem.Addr // lines of raceLine's set still to fill, counting down
	saw      byte

	stored, filled, loaded func(*seq.Op)
	read                   func()
	verify                 func() error
}

func newEvictRace(val byte, cpuReads bool) *evictRace {
	p := &evictRace{val: val, cpuReads: cpuReads}
	p.stored, p.filled, p.loaded = p.onStored, p.onFilled, p.onLoaded
	p.read, p.verify = p.onRead, p.check
	return p
}

func (p *evictRace) run(sys *config.System, choose Choose) func() error {
	p.sys, p.at, p.fill, p.saw = sys, choose(), 2, 255
	sys.AccelSeqs[0].Store(raceLine, p.val, p.stored)
	return p.verify
}

// onStored evicts raceLine by filling its set: with Small caches the
// accel L1 is 2 sets x 2 ways, so lines 128 bytes apart collide. At the
// chosen delay, the reader loads the line.
func (p *evictRace) onStored(*seq.Op) {
	p.onFilled(nil)
	p.sys.Eng.Schedule(p.at, p.read)
}

func (p *evictRace) onFilled(*seq.Op) {
	if n := p.fill; n > 0 {
		p.fill--
		p.sys.AccelSeqs[0].Store(raceLine+n*128, byte(n), p.filled)
	}
}

func (p *evictRace) onRead() {
	reader := p.sys.AccelSeqs[0]
	if p.cpuReads {
		reader = p.sys.CPUSeqs[0]
	}
	reader.Load(raceLine, p.loaded)
}

func (p *evictRace) onLoaded(op *seq.Op) { p.saw = op.Result }

func (p *evictRace) check() error {
	if p.saw != p.val {
		return fmt.Errorf("read %d, want %d (the evicted data lost in the race)", p.saw, p.val)
	}
	return nil
}

// writeThenAgree arms the write-then-agree race: writers[0] stores first
// at once and writers[i] stores first+i after at[i-1] ticks. Once every
// store has completed, each reader loads the line; all must read the same
// value, and it must be one of those written.
func writeThenAgree(sys *config.System, first byte, writers, readers []*seq.Sequencer, at ...sim.Time) func() error {
	vals := make([]byte, len(readers))
	reads, writes := 0, 0
	wrote := func(*seq.Op) {
		if writes++; writes < len(writers) {
			return
		}
		for i, sq := range readers {
			sq.Load(raceLine, func(op *seq.Op) { vals[i] = op.Result; reads++ })
		}
	}
	writers[0].Store(raceLine, first, wrote)
	for i, delay := range at {
		sq, v := writers[i+1], first+byte(i+1)
		sys.Eng.Schedule(delay, func() { sq.Store(raceLine, v, wrote) })
	}
	return func() error {
		if reads != len(readers) {
			return fmt.Errorf("only %d of %d final reads completed", reads, len(readers))
		}
		for _, v := range vals {
			if v != vals[0] {
				return fmt.Errorf("divergent final values %v (convergence failed)", vals)
			}
		}
		if vals[0] < first || vals[0] >= first+byte(len(writers)) {
			return fmt.Errorf("final value %d is none of the written values", vals[0])
		}
		return nil
	}
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
			Run:  newEvictRace(11, true).run,
		},
		{
			// The accelerator upgrades S->M while a CPU writes: the
			// guard must invalidate the accelerator's stale S copy and
			// still deliver fresh data to the upgrade.
			Name: "upgrade-vs-inv",
			Run: func(sys *config.System, choose Choose) func() error {
				at := choose()
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
					sys.Eng.Schedule(at, func() {
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
			Run:  newEvictRace(31, false).run,
		},
		{
			// Three-way conflict: two CPUs and the accelerator write the
			// same line, the second CPU after a chosen delay and the
			// accelerator a second chosen delay after that; afterwards
			// everyone must agree on a single final value.
			Name: "three-writers",
			Run: func(sys *config.System, choose Choose) func() error {
				all := []*seq.Sequencer{sys.CPUSeqs[0], sys.CPUSeqs[1], sys.AccelSeqs[0]}
				a := choose()
				return writeThenAgree(sys, 41, all, all, a, a+choose())
			},
		},
	}
}
