package main

import (
	"fmt"
	"runtime"
	"time"

	"crossingguard/internal/campaign"
)

// run carries the correctness gate of one benchmark invocation: ops
// attempted and failed, and the simulated fingerprint every batch of the
// invocation must reproduce.
type run struct {
	w        *workloadDef
	seed     int64
	out      *report
	fp       string
	problems []string

	attempted, failed int
}

// account folds a batch into the gate. A batch whose fingerprint differs
// from the run's first counts as one failed op: the simulator decided
// something else under identical inputs.
func (r *run) account(b *batch, what string) {
	r.attempted += b.shards
	r.failed += b.failed
	for _, e := range b.errs {
		r.problems = append(r.problems, what+": "+e)
	}
	switch {
	case r.fp == "":
		r.fp = b.fp
	case b.fp != r.fp:
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: sim_fingerprint %s differs from the run's %s", what, b.fp, r.fp))
	}
}

// plan is a workload's generated inputs.
type plan struct {
	machines []machineShard
	specs    []campaign.ShardSpec
	kinds    []string // sweep of each campaign spec
}

func (w *workloadDef) plan(seed int64) plan {
	if w.machines != nil {
		return plan{machines: w.machines(seed)}
	}
	specs, kinds := campaignShards(seed)
	return plan{specs: specs, kinds: kinds}
}

func (p *plan) size() int { return len(p.machines) + len(p.specs) }

// batch runs the plan once, untraced, the way the timed loop does.
func (p *plan) batch() batch {
	if p.machines != nil {
		return runMachineBatch(p.machines, runMode{}, nil)
	}
	b, _ := runCampaignBatch(p.specs, campaignWorkers)
	return b
}

const setupReps = 3

// setUp generates the inputs and runs the discarded warm-up batch,
// setupReps times over; setup_s is the median. The first repetition pays
// first-use tables and heap growth, the later ones show what is left.
func (r *run) setUp() (plan, float64, time.Duration) {
	var p plan
	var secs []float64
	var warm time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		p = r.w.plan(r.seed)
		b := p.batch()
		secs = append(secs, time.Since(t0).Seconds())
		warm = b.busy
		r.account(&b, fmt.Sprintf("warm-up %d", i))
	}
	return p, median(secs), warm
}

// replayQuantile is the quantile of a unit's replays taken as its cost. The
// replays are one deterministic computation, so what differs between them is
// the host: a stolen time slice or a collector cycle landing on this replay
// and not that one, and it only ever adds time. The lower quartile is the
// cost with that taken out, yet not the luckiest replay. Medians over whole
// batches spread 2-4x wider across runs on a shared host, and a p95 of pooled
// samples wider still (README, "Steadiness").
const replayQuantile = 25

// replayCost takes passes over one list of units (parallel slices) and
// returns each unit's cost: the replayQuantile of its times over the passes.
func replayCost(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([]float64, len(passes[0]))
	col := make([]float64, len(passes))
	for i := range out {
		for j, pass := range passes {
			col[j] = pass[i]
		}
		out[i] = percentile(col, replayQuantile)
	}
	return out
}

// endToEnd is the untraced run: setup, then timed batches replaying the
// same shard list for the given number of seconds. The unit of host time is
// the shard on the single-machine workloads and the whole campaign.Run on
// campaign_adv; every host-time metric is derived from the units' costs.
func (r *run) endToEnd(seconds float64) metricSet {
	p, setupS, warm := r.setUp()
	runtime.GC()

	budget := time.Duration(seconds * float64(time.Second))
	minBatches := 3
	isCampaign := p.machines == nil
	var (
		busy, inRun, perShard [][]float64 // ms per unit, one slice per pass
		cells                 []string
		perMemops             []float64
		total                 batch
	)
	// campaign_adv cannot time one shard inside campaign.Run, so sequential
	// passes over the same shards supply the per-shard samples: one before
	// and one after the batches, each about workers x a batch, taken out of
	// the budget.
	sequential := func(what string) {
		b := runCampaignSequential(p.specs, p.kinds)
		r.account(&b, what)
		perShard, cells = append(perShard, b.shardMS), b.cells
	}
	if isCampaign {
		budget -= 2 * campaignWorkers * warm
		minBatches = 2
		sequential("sequential pass 0")
	}
	g0 := readGC()
	start := time.Now()
	for n := 0; n < minBatches || time.Since(start) < budget; n++ {
		b := p.batch()
		r.account(&b, fmt.Sprintf("batch %d", n))
		if isCampaign {
			busy = append(busy, []float64{ms(b.busy)})
			inRun = append(inRun, []float64{ms(b.run)})
		} else {
			busy = append(busy, b.shardMS)
			inRun = append(inRun, b.runMS)
			perShard, cells = busy, b.cells
		}
		perMemops = append(perMemops, ratio(float64(b.memops), b.run.Seconds()))
		total.memops += b.memops
		total.ticks += b.ticks
		total.allocs = total.allocs.add(b.allocs)
	}
	batches := len(busy)
	g1 := readGC()
	if isCampaign {
		sequential("sequential pass 1")
	}

	cost := replayCost(perShard)
	samples := len(perShard) * len(cost)
	pctl := tailPercentile(samples)
	batchMemops := float64(total.memops) / float64(batches)
	m := metricSet{
		"memops_per_s":          ratio(batchMemops, sum(replayCost(inRun))/1000),
		"shards_per_s":          ratio(float64(p.size()), sum(replayCost(busy))/1000),
		"shard_ms_p50":          median(cost),
		"shard_ms_p95":          percentile(cost, pctl),
		"allocs_per_memop":      ratio(float64(total.allocs.Objects), float64(total.memops)),
		"alloc_bytes_per_memop": ratio(float64(total.allocs.Bytes), float64(total.memops)),
		"sim_ticks_per_memop":   ratio(float64(total.ticks), float64(total.memops)),
		"setup_s":               setupS,
	}

	o := r.out
	o.printf("  timed: %d batches x %d shards; a unit's cost is the p%d of its replays", batches, p.size(), replayQuantile)
	o.printf("  per-shard: %d passes, %d samples; shard_ms_p95 is p%d (>=10 samples beyond) of the shard costs",
		len(perShard), samples, pctl)
	sm := sorted(perMemops)
	o.printf("  memops_per_s by whole batch, host interference included: min %.0f, median %.0f, max %.0f",
		sm[0], median(sm), sm[len(sm)-1])
	o.printf("  gc: %d cycles, %.1f%% of process CPU over the timed batches",
		g1.cycles-g0.cycles, 100*ratio(g1.gcCPU-g0.gcCPU, g1.cpu-g0.cpu))
	o.cellTable("shard_ms_p50 by cell", cells, cost)
	return m
}
