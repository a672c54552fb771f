package main

import (
	"fmt"
	"time"

	"crossingguard/internal/campaign"
)

// batch is the outcome of running a workload's shard list once.
type batch struct {
	shards, failed int
	errs           []string // first few failures, for the report
	// busy is the host time the batch's ops took: the sum of Build+Run on
	// the single-goroutine workloads (the harness's own fingerprinting
	// between shards is excluded), campaign.Run's elapsed on campaign_adv.
	busy  time.Duration
	run   time.Duration // inside tester.Run / workload.Run / campaign.Run
	build time.Duration
	// Per-shard samples, parallel slices.
	cells   []string
	shardMS []float64 // Build+Run
	buildMS []float64
	runMS   []float64 // inside tester.Run / workload.Run

	memops, ticks uint64
	allocs        heapCount
	buildAllocs   uint64
	fp            string
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (b *batch) fail(cell string, err error) {
	b.failed++
	if len(b.errs) < 5 {
		b.errs = append(b.errs, fmt.Sprintf("%s: %v", cell, err))
	}
}

// runMachineBatch runs every shard on the calling goroutine. visit, when
// set, sees each finished shard (with its machine) outside the timed
// region; the traced run gathers counts there.
func runMachineBatch(shards []machineShard, mode runMode, visit func(*machineShard, *shardRun)) batch {
	b := batch{shards: len(shards)}
	fp := newFingerprint()
	for i := range shards {
		sh := &shards[i]
		r := runMachine(sh, mode)
		if r.err != nil {
			b.fail(sh.Cell, r.err)
		}
		b.busy += r.build + r.run
		b.run += r.run
		b.build += r.build
		b.cells = append(b.cells, sh.Cell)
		b.shardMS = append(b.shardMS, ms(r.build+r.run))
		b.buildMS = append(b.buildMS, ms(r.build))
		b.runMS = append(b.runMS, ms(r.run))
		b.memops += r.memops
		b.ticks += r.endTick
		b.allocs = b.allocs.add(r.allocs)
		b.buildAllocs += r.buildAllocs
		fp.machine(sh, &r)
		if visit != nil {
			visit(sh, &r)
		}
	}
	b.fp = fp.sum()
	return b
}

// campaignBatch folds a campaign report into a batch. Quarantined shards
// are expected outcomes of the adversarial sweeps; only the report's
// failure artifacts are failed ops.
func campaignBatch(rep *campaign.Report, elapsed time.Duration, allocs heapCount) batch {
	b := batch{shards: len(rep.Shards), busy: elapsed, run: elapsed, allocs: allocs}
	for _, a := range rep.Artifacts {
		b.fail(a.Spec.Name(), fmt.Errorf("%s", a.Err))
	}
	fp := newFingerprint()
	for i := range rep.Shards {
		s := &rep.Shards[i]
		b.memops += s.Res.Stores + s.Res.Loads + s.Sent
		b.ticks += uint64(s.Res.EndTime)
		fp.shard(s)
	}
	b.fp = fp.sum()
	return b
}

// runCampaignBatch runs the shard list through the campaign runner.
func runCampaignBatch(specs []campaign.ShardSpec, workers int) (batch, *campaign.Report) {
	a0 := readHeap()
	t0 := time.Now()
	rep := campaign.Run(specs, campaign.Options{Workers: workers})
	elapsed := time.Since(t0)
	return campaignBatch(rep, elapsed, readHeap().sub(a0)), rep
}

// runCampaignSequential runs the same shards one at a time through
// campaign.RunShard: the only way to time a single campaign shard from
// outside the runner. It yields the per-shard samples of campaign_adv.
func runCampaignSequential(specs []campaign.ShardSpec, kinds []string) batch {
	b := batch{shards: len(specs)}
	fp := newFingerprint()
	for i, spec := range specs {
		a0 := readHeap()
		t0 := time.Now()
		res := campaign.RunShard(spec, false)
		d := time.Since(t0)
		b.allocs = b.allocs.add(readHeap().sub(a0))
		if res.Err != nil {
			b.fail(spec.Name(), res.Err)
		}
		b.busy += d
		b.cells = append(b.cells, kinds[i])
		b.shardMS = append(b.shardMS, ms(d))
		b.memops += res.Res.Stores + res.Res.Loads + res.Sent
		b.ticks += uint64(res.Res.EndTime)
		fp.shard(&res)
	}
	b.run = b.busy
	b.fp = fp.sum()
	return b
}
