// Failing-run minimization: ddmin-style shrinking of a failing shard
// spec. A checker is only as useful as the repro it hands you — a
// 3000-message chaos shard that fails tells you much less than the
// 40-message version that still fails. Shrink reduces the spec's op
// budgets, core counts, and fault plan while the failure keeps
// reproducing, and returns a minimal spec whose repro string replays
// the reduced failure deterministically.
//
// Everything here is deterministic: shards are deterministic given
// their spec, knobs are visited in a fixed order, and each knob is
// minimized by bounded bisection with no randomness or wall-clock
// dependence — shrinking the same spec twice yields byte-identical
// minimal specs.
package campaign

import (
	"fmt"
	"io"

	"crossingguard/internal/faults"
)

// ShrinkOptions configures a minimization.
type ShrinkOptions struct {
	// MaxRuns caps the total number of shards executed (including the
	// initial failure check and the final verification); <= 0 means 120.
	// When the budget runs out mid-search, candidates that were never
	// tried count as non-reproducing, so the result is still a verified
	// failing spec — just possibly not the smallest one.
	MaxRuns int
	// Log, when non-nil, receives one line per adopted reduction.
	Log io.Writer
}

// ShrinkResult is the outcome of one minimization.
type ShrinkResult struct {
	Original ShardSpec
	Minimal  ShardSpec
	// OriginalErr and MinimalErr are the failures observed on the
	// original and minimal specs.
	OriginalErr string
	MinimalErr  string
	// Runs is the number of shards executed.
	Runs int
	// Steps lists the adopted reductions in order ("stores: 100 -> 3").
	Steps []string
}

// shrinker carries the run budget and failure predicate through one
// minimization.
type shrinker struct {
	runs, maxRuns int
	log           io.Writer
	lastErr       error
}

// fails runs spec and reports whether it still fails, spending one unit
// of budget; with no budget left it reports false (candidate treated as
// non-reproducing, keeping the current — verified failing — spec).
func (sh *shrinker) fails(spec ShardSpec) bool {
	if sh.runs >= sh.maxRuns {
		return false
	}
	sh.runs++
	spec.Index = 0
	res := runShardSafe(spec, false, 0, nil)
	if res.Err != nil {
		sh.lastErr = res.Err
		return true
	}
	return false
}

// Shrink minimizes a failing shard spec. It returns an error when the
// spec does not fail as given (nothing to minimize) or cannot be
// expressed as a repro string (custom shards).
func Shrink(spec ShardSpec, opt ShrinkOptions) (*ShrinkResult, error) {
	if spec.Custom != nil {
		return nil, fmt.Errorf("campaign: cannot shrink a custom shard")
	}
	sh := &shrinker{maxRuns: opt.MaxRuns, log: opt.Log}
	if sh.maxRuns <= 0 {
		sh.maxRuns = 120
	}
	res := &ShrinkResult{Original: spec}
	if !sh.fails(spec) {
		return nil, fmt.Errorf("campaign: spec does not fail, nothing to shrink: %s", FormatSpec(spec))
	}
	res.OriginalErr = sh.lastErr.Error()

	cur := spec
	// Fixpoint over the knob list: repeat full passes until a pass
	// adopts nothing (or the run budget is spent). The knob order is
	// fixed — volume first (it shrinks fastest), then parallelism, then
	// the fault plan — so the search path, and therefore the minimum
	// found, is a pure function of the input spec.
	for changed := true; changed && sh.runs < sh.maxRuns; {
		changed = false
		changed = sh.shrinkVolume(&cur, res) || changed
		changed = sh.shrinkCores(&cur, res) || changed
		changed = sh.shrinkFaults(&cur, res) || changed
	}

	// Verify the minimum once more so MinimalErr is the error of the
	// exact spec returned (bisection guarantees it fails, but the
	// message may differ from the last probe's).
	sh.maxRuns = sh.runs + 1
	if !sh.fails(cur) {
		return nil, fmt.Errorf("campaign: shrunk spec stopped failing (%s); this is a determinism bug", FormatSpec(cur))
	}
	res.Minimal = cur
	res.MinimalErr = sh.lastErr.Error()
	res.Runs = sh.runs
	return res, nil
}

// shrinkVolume minimizes the spec's op budget (stores for stress
// shards, attack messages for fuzz/chaos).
func (sh *shrinker) shrinkVolume(cur *ShardSpec, res *ShrinkResult) bool {
	switch cur.Kind {
	case KindStress:
		return sh.shrinkInt(cur, res, "stores", cur.Stores, 1,
			func(s *ShardSpec, v int) { s.Stores = v })
	case KindFuzz, KindChaos:
		return sh.shrinkInt(cur, res, "messages", cur.Messages, 1,
			func(s *ShardSpec, v int) { s.Messages = v })
	}
	return false
}

// shrinkCores minimizes core counts: accelerator cores (stress only —
// fuzz/chaos shards always build one adversary), then CPUs.
func (sh *shrinker) shrinkCores(cur *ShardSpec, res *ShrinkResult) bool {
	changed := false
	if cur.Kind == KindStress {
		changed = sh.shrinkInt(cur, res, "cores", cur.Cores, 1,
			func(s *ShardSpec, v int) { s.Cores = v }) || changed
	}
	changed = sh.shrinkInt(cur, res, "cpus", cur.CPUs, 1,
		func(s *ShardSpec, v int) { s.CPUs = v }) || changed
	return changed
}

// shrinkInt minimizes one integer knob by bounded bisection: if the
// floor still fails, take it; otherwise bisect for the smallest failing
// value between floor (passing) and the current value (failing). Each
// probe is one deterministic shard run.
func (sh *shrinker) shrinkInt(cur *ShardSpec, res *ShrinkResult, name string, v, floor int, set func(*ShardSpec, int)) bool {
	if v <= floor {
		return false
	}
	try := func(candidate int) bool {
		probe := *cur
		set(&probe, candidate)
		return sh.fails(probe)
	}
	good, bad := floor, v // good passes (assumed), bad fails (verified)
	if try(floor) {
		bad = floor
	} else {
		for bad-good > 1 {
			mid := good + (bad-good)/2
			if try(mid) {
				bad = mid
			} else {
				good = mid
			}
		}
	}
	if bad == v {
		return false
	}
	sh.adopt(cur, res, name, fmt.Sprintf("%d -> %d", v, bad), func(s *ShardSpec) { set(s, bad) })
	return true
}

// shrinkFaults minimizes a chaos shard's fault plan: first try dropping
// the whole plan, then zero each field in a fixed order.
func (sh *shrinker) shrinkFaults(cur *ShardSpec, res *ShrinkResult) bool {
	if cur.Kind != KindChaos || !cur.Faults.Active() {
		return false
	}
	try := func(mut func(*faults.Plan)) bool {
		probe := *cur
		mut(&probe.Faults)
		return sh.fails(probe)
	}
	if try(func(p *faults.Plan) { *p = faults.Plan{} }) {
		before := cur.Faults.Spec()
		sh.adopt(cur, res, "faults", before+" -> none", func(s *ShardSpec) { s.Faults = faults.Plan{} })
		return true
	}
	changed := false
	zero := func(name string, active func(faults.Plan) bool, mut func(*faults.Plan)) {
		if !active(cur.Faults) || !try(mut) {
			return
		}
		sh.adopt(cur, res, "faults."+name, "-> 0", func(s *ShardSpec) { mut(&s.Faults) })
		changed = true
	}
	zero("drop", func(p faults.Plan) bool { return p.Drop > 0 }, func(p *faults.Plan) { p.Drop = 0 })
	zero("dup", func(p faults.Plan) bool { return p.Dup > 0 }, func(p *faults.Plan) { p.Dup = 0 })
	zero("corrupt", func(p faults.Plan) bool { return p.Corrupt > 0 }, func(p *faults.Plan) { p.Corrupt = 0 })
	zero("delay", func(p faults.Plan) bool { return p.Delay > 0 }, func(p *faults.Plan) { p.Delay = 0; p.MaxDelay = 0 })
	zero("reorder", func(p faults.Plan) bool { return p.Reorder > 0 }, func(p *faults.Plan) { p.Reorder = 0 })
	return changed
}

// adopt applies a reduction to the working spec and records the step.
func (sh *shrinker) adopt(cur *ShardSpec, res *ShrinkResult, name, detail string, apply func(*ShardSpec)) {
	apply(cur)
	step := fmt.Sprintf("%s: %s", name, detail)
	res.Steps = append(res.Steps, step)
	if sh.log != nil {
		fmt.Fprintf(sh.log, "shrink: %s (runs=%d)\n", step, sh.runs)
	}
}
