// Package tester implements the random protocol stress tester of paper
// §4.1, modeled on the gem5-Ruby random tester the authors used: it makes
// "rapid loads and stores to random addresses and checks correctness of
// the data", using a small address pool and small caches so replacements
// and races are frequent.
//
// Each location (a byte address) cycles through: pick a random core,
// store a new value; once the store completes, issue verifying loads from
// random cores, each of which must observe the stored value (coherence
// makes a completed store globally visible); repeat. Locations progress
// concurrently, and several locations share each cache line, so lines
// ping-pong between cores with reads and writes in flight simultaneously.
//
// On a multi-accelerator machine (config.Spec with Accels > 1) the
// sequencer list spans every device, and the shared address pool makes
// the tester a cross-device sharing workload for free: the same line is
// stored by one accelerator and verified from another (and from CPUs),
// so ownership migrates guard-to-guard through the host on every
// location cycle. Nothing in the tester is device-aware — the point is
// that it doesn't have to be.
package tester

import (
	"fmt"
	"math/rand"

	"crossingguard/internal/consistency"
	"crossingguard/internal/mem"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
)

// System is what the tester needs from a simulated machine.
type System interface {
	// Engine returns the machine's event engine.
	Engine() *sim.Engine
	// Sequencers returns the cores to drive.
	Sequencers() []*seq.Sequencer
	// Outstanding reports open protocol transactions; nonzero after the
	// engine quiesces means deadlock.
	Outstanding() int
	// Audit checks protocol invariants (SWMR, data agreement) at a
	// quiesce point; nil means clean.
	Audit() error
}

// Config parameterizes a stress run.
type Config struct {
	Seed int64
	// Lines is the number of distinct cache lines in the pool (small to
	// maximize contention).
	Lines int
	// LocsPerLine is how many independently-written byte locations share
	// each line (false sharing pressure).
	LocsPerLine int
	// StoresPerLoc is how many store→verify cycles each location runs.
	StoresPerLoc int
	// LoadsPerStore is how many verifying loads follow each store.
	LoadsPerStore int
	// BaseAddr offsets the address pool.
	BaseAddr mem.Addr
	// Deadline bounds simulated time; exceeding it is a liveness failure.
	Deadline sim.Time
	// SkipValueChecks disables load-value verification. Used when an
	// adversarial agent legitimately corrupts data (paper §2.2.1: the
	// guard cannot protect data the accelerator may write); liveness and
	// structural invariants are still enforced.
	SkipValueChecks bool
}

// DefaultConfig returns a reasonable stress configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		Lines:         8,
		LocsPerLine:   2,
		StoresPerLoc:  50,
		LoadsPerStore: 2,
		BaseAddr:      0x10000,
		Deadline:      20_000_000,
	}
}

// Result summarizes a stress run.
type Result struct {
	Stores, Loads uint64
	// LoadChecks counts loads whose value was verified.
	LoadChecks uint64
	// EndTime is the tick the machine went quiet: that of the last event
	// any component had to run — the last memop's completion and whatever
	// writebacks and acks trail it. A timer called off before it was due
	// (a closed recall's Guarantee 2c watchdog) is not one; on a run that
	// hit Deadline with events still queued it is Deadline.
	EndTime sim.Time
}

// location is one independently-verified byte address. It has one
// operation in flight at a time and keeps that operation's state itself,
// so it is its own think-time event, and the run's one callback finds it
// from the operation's address: a run's locations are one array.
type location struct {
	r      *runner
	addr   mem.Addr
	value  byte // last completed store
	rounds int

	storing   byte           // operand of the store in flight
	checker   *seq.Sequencer // core that issued the verifying load in flight; nil while a store is
	remaining int            // verifying loads to issue after that one
}

// Fire begins the location's next store→verify round (sim.Event).
func (loc *location) Fire() { loc.r.startStore(loc) }

type runner struct {
	sys  System
	cfg  Config
	rng  *rand.Rand
	seqs []*seq.Sequencer
	res  Result
	errs []error
	open int // locations still running
	locs []location
	done func(*seq.Op) // opDone, made once per run
}

// Run drives the system until every location completes its rounds, then
// verifies quiescence and invariants. It returns the result and the first
// detected failure (data mismatch, deadlock, or audit violation).
func Run(sys System, cfg Config) (Result, error) {
	if cfg.Lines <= 0 || cfg.LocsPerLine <= 0 || cfg.LocsPerLine > mem.BlockBytes || cfg.StoresPerLoc <= 0 {
		return Result{}, fmt.Errorf("tester: bad config %+v", cfg)
	}
	r := &runner{sys: sys, cfg: cfg, rng: sys.Engine().Rand(cfg.Seed), seqs: sys.Sequencers()}
	if len(r.seqs) == 0 {
		return Result{}, fmt.Errorf("tester: system has no sequencers")
	}

	locs := make([]location, cfg.Lines*cfg.LocsPerLine)
	for i := range locs {
		// Spread locations across the line so neighboring bytes
		// exercise read-modify-write correctness.
		l, o := i/cfg.LocsPerLine, i%cfg.LocsPerLine
		locs[i].r, locs[i].addr = r, cfg.BaseAddr+mem.Addr(l*mem.BlockBytes+o*(mem.BlockBytes/cfg.LocsPerLine))
	}
	r.locs, r.done, r.open = locs, r.opDone, len(locs)
	eng := sys.Engine()
	for i := range locs {
		eng.ScheduleEvent(sim.Time(r.rng.Intn(16)), &locs[i])
	}

	quiet := eng.RunUntil(cfg.Deadline)
	r.res.EndTime = eng.Now()
	if len(r.errs) > 0 {
		return r.res, r.errs[0]
	}
	if r.open > 0 {
		if quiet {
			return r.res, fmt.Errorf("tester: DEADLOCK at t=%d: engine quiesced with %d locations open, %d protocol txns outstanding",
				eng.Now(), r.open, sys.Outstanding())
		}
		return r.res, fmt.Errorf("tester: LIVENESS: deadline %d reached with %d locations open", cfg.Deadline, r.open)
	}
	if !quiet {
		// Locations finished but residual events remain; drain them.
		if !eng.RunUntil(cfg.Deadline * 2) {
			return r.res, fmt.Errorf("tester: engine failed to drain after completion")
		}
	}
	if n := sys.Outstanding(); n != 0 {
		return r.res, fmt.Errorf("tester: %d protocol transactions still open after quiesce", n)
	}
	if err := sys.Audit(); err != nil {
		return r.res, fmt.Errorf("tester: audit failed: %w", err)
	}
	return r.res, nil
}

// opDone completes the store or load in flight at op's location.
func (r *runner) opDone(op *seq.Op) {
	off := int(op.Addr - r.cfg.BaseAddr)
	loc := &r.locs[off/mem.BlockBytes*r.cfg.LocsPerLine+off%mem.BlockBytes/(mem.BlockBytes/r.cfg.LocsPerLine)]
	if loc.checker == nil {
		r.storeDone(loc)
	} else {
		r.checkDone(loc, op)
	}
}

func (r *runner) fail(err error) { r.errs = append(r.errs, err) }

func (r *runner) pick() *seq.Sequencer {
	return r.seqs[r.rng.Intn(len(r.seqs))]
}

func (r *runner) startStore(loc *location) {
	if len(r.errs) > 0 {
		r.open = 0
		r.sys.Engine().Stop()
		return
	}
	loc.storing = byte(r.rng.Intn(255) + 1) // never 0, so "never written" is distinguishable
	loc.checker = nil
	r.pick().Store(loc.addr, loc.storing, r.done)
}

func (r *runner) storeDone(loc *location) {
	r.res.Stores++
	loc.value = loc.storing
	r.startChecks(loc, r.cfg.LoadsPerStore)
}

func (r *runner) startChecks(loc *location, remaining int) {
	if len(r.errs) > 0 {
		r.open = 0
		r.sys.Engine().Stop()
		return
	}
	if remaining == 0 {
		loc.rounds++
		if loc.rounds >= r.cfg.StoresPerLoc {
			r.open--
			return
		}
		// Small random think time decorrelates the locations.
		r.sys.Engine().ScheduleEvent(sim.Time(r.rng.Intn(8)), loc)
		return
	}
	loc.checker, loc.remaining = r.pick(), remaining-1
	loc.checker.Load(loc.addr, r.done)
}

// checkDone verifies one load against the location's last completed store
// (no store to the location is in flight while its loads are).
func (r *runner) checkDone(loc *location, op *seq.Op) {
	r.res.Loads++
	// Record the tester's own expectation next to the sequencer's
	// load record: the offline checker then validates the harness's
	// bookkeeping against the recorded history, even on runs where
	// inline verification is off.
	if rec := loc.checker.Rec; rec.Active() {
		rec.Record(consistency.OpVerify, loc.addr, loc.value, op.Issued, op.Done)
	}
	if r.cfg.SkipValueChecks {
		r.startChecks(loc, loc.remaining)
		return
	}
	r.res.LoadChecks++
	if op.Result != loc.value {
		r.fail(fmt.Errorf("tester: DATA ERROR at %v: loaded %d, want %d (t=%d, core %s)",
			loc.addr, op.Result, loc.value, r.sys.Engine().Now(), loc.checker.Name()))
		r.sys.Engine().Stop()
		return
	}
	r.startChecks(loc, loc.remaining)
}
