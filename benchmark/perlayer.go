package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"crossingguard/internal/campaign"
	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
)

// counts are the deterministic per-layer numbers of one untraced batch.
type counts struct {
	events, msgs, bytes uint64
	violations          uint64
	recoveries          uint64
	injected, sent      uint64
	reg                 *obs.Registry // every shard's registry, merged in shard order
	// kernels only: accelerator-to-guard traffic, and the accelerator
	// makespan summed per configuration
	putSBytes, accelBytes uint64
	cycles                map[string]uint64
}

func newCounts() *counts {
	return &counts{reg: obs.NewRegistry(), cycles: map[string]uint64{}}
}

// machine gathers one finished shard (runMachineBatch's visit hook).
func (c *counts) machine(sh *machineShard, r *shardRun) {
	c.events += r.sys.Eng.Executed
	r.sys.Fab.VisitStats(func(_, _ coherence.NodeID, s *network.Stats) {
		c.msgs += s.Msgs
		c.bytes += s.Bytes
	})
	c.violations += uint64(r.sys.Log.Count())
	c.reg.Merge(r.sys.Obs)
	if sh.Kernel != nil {
		c.cycles[sh.Config] += r.cycles
		for _, g := range r.sys.Guards {
			s := r.sys.Fab.StatsFor(g.AccelID(), g.ID())
			c.putSBytes += s.BytesByType[coherence.APutS]
			c.accelBytes += s.Bytes
		}
	}
}

// shards gathers a campaign report. The machines are out of reach inside
// campaign.RunShard, so traffic comes from the merged registry and engine
// event counts are not available.
func (c *counts) shards(rep *campaign.Report) {
	c.reg = rep.Metrics
	for i := range rep.Shards {
		s := &rep.Shards[i]
		c.violations += s.Violations
		c.recoveries += s.Recoveries
		c.injected += s.Injected
		c.sent += s.Sent
	}
	snap := c.reg.Snapshot()
	c.msgs, c.bytes = snap.Counters["net.msgs"], snap.Counters["net.bytes"]
}

// metrics turns the counts into per-memop and per-shard rows.
func (c *counts) metrics(m metricSet, memops uint64, shards int) {
	per := func(n uint64) float64 { return ratio(float64(n), float64(memops)) }
	perShard := func(n uint64) float64 { return ratio(float64(n), float64(shards)) }
	snap := c.reg.Snapshot()
	var transitions uint64
	for name, n := range snap.Counters {
		if strings.Contains(name, ".state.") {
			transitions += n
		}
	}
	crossing := snap.Histograms["xg.crossing.ticks"]
	if c.events != 0 {
		m["sim.events_per_memop"] = per(c.events)
		// Every delivery is one engine event; what is left are timers:
		// guard per-tick polls, think time, watchdogs.
		m["sim.timer_events_per_memop"] = per(c.events - c.msgs)
	}
	m["network.msgs_per_memop"] = per(c.msgs)
	m["network.bytes_per_memop"] = per(c.bytes)
	m["network.inflight_max"] = float64(snap.Gauges["net.inflight"].Max)
	m["coherence.transitions_per_memop"] = per(transitions)
	m["core.crossings_per_memop"] = per(uint64(crossing.N))
	m["core.crossing_ticks_p50"] = crossing.P50
	m["core.crossing_ticks_p99"] = crossing.P99
	m["core.violations_per_shard"] = perShard(c.violations)
	m["core.recall_retries_per_shard"] = perShard(snap.Counters["guard.recall.retry"])
	m["core.recoveries_per_shard"] = perShard(c.recoveries)
	m["faults.injected_per_shard"] = perShard(c.injected)
	m["fuzz.sent_per_shard"] = perShard(c.sent)
	// PutS share of accelerator-to-guard bytes; the paper reports 1-4%.
	m["workload.puts_frac"] = ratio(float64(c.putSBytes), float64(c.accelBytes))
	// Simulated runtime of the guarded machine over the unsafe
	// accelerator-side cache on the same host, the paper's headline
	// comparison. kernels_e5 has one same-host pair, on MESI.
	m["workload.xg_slowdown"] = ratio(float64(c.cycles["mesi/xg-full/1L"]), float64(c.cycles["mesi/accel-side"]))
}

// perLayer is the traced run. It never feeds an end-to-end number: it
// reports counts from untraced batches, host-time shares from traced
// batches, the instrumentation overheads, and the allocation ledger.
func (r *run) perLayer(seconds float64, tracePath string, meta provenance) metricSet {
	p := r.w.plan(r.seed)
	// The warm-up batch doubles as the count pass: gathering registries
	// and channel statistics makes garbage, which must not land in a batch
	// whose host time is compared.
	c := newCounts()
	var warm batch
	if p.machines != nil {
		warm = runMachineBatch(p.machines, runMode{}, c.machine)
	} else {
		var rep *campaign.Report
		warm, rep = runCampaignBatch(p.specs, campaignWorkers)
		c.shards(rep)
	}
	r.account(&warm, "warm-up")
	m := metricSet{}
	c.metrics(m, warm.memops, warm.shards)
	// Keep the two totals the share estimates need and let the merged
	// registry go: a large live heap would make the collector run less
	// often in the rounds below than it does in an untraced run.
	events, msgs := c.events, c.msgs
	c = nil
	runtime.GC()

	eventNS, sendNS, emitNS := best(engineNSPerEvent), best(fabricNSPerSend), best(emitNSPerEvent)
	m["sim.ns_per_event"] = eventNS
	m["network.ns_per_send"] = sendNS
	r.out.printf("  micro drivers: engine %.1f ns/event, fabric %.1f ns/send (engine event included), traced event %.1f ns",
		eventNS, sendNS, emitNS)

	// Most of the budget goes to the alternating untraced/traced batches; the
	// single-shot parts (spans file, ledger) take about as long as the rest.
	budget := time.Duration(0.6 * seconds * float64(time.Second))
	var ref batch
	if p.machines != nil {
		ref = r.machineLayers(&p, budget, m, emitNS, tracePath, meta)
	} else {
		ref = r.campaignLayers(&p, budget, m)
	}
	m["sim.ticks_per_s"] = ratio(float64(ref.ticks), ref.run.Seconds())
	m["sim.est_share"] = ratio(float64(events)*eventNS, float64(ref.run))
	// The fabric's own part of a send is what it costs beyond the event.
	m["network.est_share"] = ratio(float64(msgs)*(sendNS-eventNS), float64(ref.run))
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["runtime.peak_heap_mb"] = float64(mem.HeapSys) / (1 << 20)

	ledgerStart := time.Now()
	l := allocLedger(func() {
		b := p.batch()
		r.account(&b, "ledger batch")
	})
	for layer, n := range l.byLayer {
		m[layer+".allocs_per_memop"] = ratio(float64(n), float64(ref.memops))
	}
	m["ledger.coverage"] = l.coverage()
	r.out.printf("  ledger took %.1fs", time.Since(ledgerStart).Seconds())
	r.out.printf("  ledger: %d allocations estimated from samples of %d counted (%.2f%%)",
		l.profiled, l.counted, 100*l.coverage())
	if len(l.strays) > 0 {
		r.out.printf("  ledger: packages outside the catalogue folded into runtime: %s", strings.Join(l.strays, ", "))
	}
	return m
}

func medianMS(ds []time.Duration) float64 {
	var xs []float64
	for _, d := range ds {
		xs = append(xs, ms(d))
	}
	return median(xs)
}

// overheadPct is the median, over the alternating rounds, of how much slower
// the instrumented batch ran than the plain batch of the same round.
func overheadPct(plain, instrumented []time.Duration) float64 {
	var pct []float64
	for i := range instrumented {
		pct = append(pct, 100*ratio(float64(instrumented[i]-plain[i]), float64(plain[i])))
	}
	return median(pct)
}

// machineLayers runs the alternating rounds of a single-machine workload:
// untraced, traced, and on stress_xg spans-on and recorded. It returns the
// first untraced batch, the reference for per-memop rows.
func (r *run) machineLayers(p *plan, budget time.Duration, m metricSet,
	emitNS float64, tracePath string, meta provenance) batch {
	sink := newTraceSink()
	traced := runMode{attach: func(_ *machineShard, sys *config.System) { sink.attach(sys) }}
	closeShard := func(_ *machineShard, sr *shardRun) { sink.finish(sr.run) }

	var (
		ref                   batch
		plain, tr, spans, rec []time.Duration
		build                 []float64
		buildNS, busyNS       time.Duration
		buildAllocs           uint64
		recs                  int
		check                 time.Duration
		gc                    gcCount
		start                 = time.Now()
	)
	for round := 0; round < 2 || time.Since(start) < budget; round++ {
		g0 := readGC()
		b := runMachineBatch(p.machines, runMode{}, nil)
		gc = gc.add(readGC().sub(g0))
		r.account(&b, fmt.Sprintf("untraced %d", round))
		if round == 0 {
			ref = b
		}
		plain = append(plain, b.run)
		build = append(build, b.buildMS...)
		buildNS += b.build
		busyNS += b.busy
		buildAllocs += b.buildAllocs

		t := runMachineBatch(p.machines, traced, closeShard)
		r.account(&t, fmt.Sprintf("traced %d", round))
		tr = append(tr, t.run)

		if r.w.overheadRows {
			s := runMachineBatch(p.machines, runMode{spans: true}, nil)
			r.account(&s, fmt.Sprintf("spans-on %d", round))
			spans = append(spans, s.run)

			k := runMachineBatch(p.machines, runMode{record: true}, func(_ *machineShard, sr *shardRun) {
				check += sr.check
				recs += sr.recs
			})
			r.account(&k, fmt.Sprintf("recorded %d", round))
			rec = append(rec, k.run)
		}
	}

	r.out.printf("  rounds: %d; median batch run time untraced %.0f ms, traced %.0f ms", len(plain), medianMS(plain), medianMS(tr))
	m["obs.trace_overhead_pct"] = overheadPct(plain, tr)
	m["obs.events_per_memop"] = ratio(float64(sink.events), float64(ref.memops)*float64(len(tr)))
	if r.w.overheadRows {
		r.out.printf("  rounds: median batch run time spans-on %.0f ms, recorded %.0f ms", medianMS(spans), medianMS(rec))
		m["obs.spans_overhead_pct"] = overheadPct(plain, spans)
		m["consistency.recording_overhead_pct"] = overheadPct(plain, rec)
		m["consistency.check_ns_per_rec"] = ratio(float64(check), float64(recs))
	}
	m["config.build_ms_p50"] = median(build)
	m["config.build_share"] = ratio(float64(buildNS), float64(busyNS))
	m["config.allocs_per_build"] = ratio(float64(buildAllocs), float64(len(build)))
	m["runtime.gc_cpu_share"] = ratio(gc.gcCPU, gc.cpu)
	m["runtime.gc_cycles"] = float64(gc.cycles) / float64(len(plain))

	// Host-time shares: each layer's corrected time over the corrected total.
	var total float64
	for _, a := range sink.acc {
		total += a.corrected(emitNS)
	}
	rounds := float64(len(tr))
	var rows []layerRow
	for l := layer(0); l < numLayers; l++ {
		a := sink.acc[l]
		ns := a.corrected(emitNS)
		rows = append(rows, layerRow{Layer: l.String(), Recv: a.Recv, Intervals: a.Intervals,
			NS: a.NS, CorrectedNS: ns, Share: ratio(ns, total)})
		if a.Recv == 0 && a.NS == 0 {
			continue
		}
		r.out.printf("  traced %-18s %9.0f recv/batch  %6.2f%% of host time  %8.1f ns/recv",
			l, float64(a.Recv)/rounds, 100*ratio(ns, total), ratio(ns, float64(a.Recv)))
		if l == layerUnknown {
			r.failed++
			r.problems = append(r.problems, "traced run met a controller type layerOf does not know")
		}
		if l == layerHarness || l == layerUnknown || l == layerFuzz {
			continue
		}
		m[l.String()+".recv_per_memop"] = ratio(float64(a.Recv)/rounds, float64(ref.memops))
		m[l.String()+".busy_share"] = ratio(ns, total)
		m[l.String()+".ns_per_recv"] = ratio(ns, float64(a.Recv))
	}
	var attributed int64
	for _, a := range sink.acc {
		attributed += a.NS
	}
	var tracedRun time.Duration
	for _, d := range tr {
		tracedRun += d
	}
	r.out.printf("  traced: %.1f%% of the traced batches' run time attributed to a layer",
		100*ratio(float64(attributed), float64(tracedRun)))

	file := traceFile{Meta: meta, Workload: r.w.Name, Seed: r.seed, EmitNS: emitNS,
		TracedBatches: len(tr), Layers: rows, Shards: r.fullSpans(p)}
	if err := writeJSON(tracePath, file); err != nil {
		r.failed++
		r.problems = append(r.problems, "writing the trace: "+err.Error())
	} else {
		r.out.printf("  trace written to %s", tracePath)
	}
	return ref
}

// traceFile is benchmark/out/trace_<workload>.json.
type traceFile struct {
	Meta          provenance   `json:"meta"`
	Workload      string       `json:"workload"`
	Seed          int64        `json:"seed"`
	EmitNS        float64      `json:"emit_ns_per_event"`
	TracedBatches int          `json:"traced_batches"`
	Layers        []layerRow   `json:"layers"`
	Shards        []shardSpans `json:"shards"`
}

type layerRow struct {
	Layer       string  `json:"layer"`
	Recv        uint64  `json:"recv"`
	Intervals   uint64  `json:"intervals"`
	NS          int64   `json:"ns"`
	CorrectedNS float64 `json:"corrected_ns"`
	Share       float64 `json:"share"`
}

type shardSpans struct {
	Cell      string `json:"cell"`
	Truncated bool   `json:"truncated,omitempty"`
	Spans     []span `json:"spans"`
}

// fullSpans re-runs the first shard of each cell with Spec.Spans on and a
// span recorder attached, for the trace file only.
func (r *run) fullSpans(p *plan) []shardSpans {
	var out []shardSpans
	seen := map[string]bool{}
	for i := range p.machines {
		sh := &p.machines[i]
		if seen[sh.Cell] {
			continue
		}
		seen[sh.Cell] = true
		sink := newTraceSink()
		sr := runMachine(sh, runMode{spans: true, attach: func(_ *machineShard, sys *config.System) {
			sink.rec = &spanRecorder{parents: map[[2]coherence.NodeID][]int{}}
			sink.attach(sys)
		}})
		sink.finish(sr.run)
		rec := sink.finishSpans()
		r.attempted++
		if sr.err != nil {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("span shard %s: %v", sh.Cell, sr.err))
		}
		out = append(out, shardSpans{Cell: sh.Cell, Truncated: rec.truncated, Spans: rec.spans})
	}
	return out
}

// campaignLayers runs campaign_adv's rounds: the 2-worker runner for
// counts, one sequential RunShard pass for per-sweep shard times, and one
// single-worker run whose excess over the sequential pass is the runner's
// own dispatch, merge and aggregate cost.
func (r *run) campaignLayers(p *plan, budget time.Duration, m metricSet) batch {
	var (
		ref     batch
		elapsed []float64
		gc      gcCount
		start   = time.Now()
	)
	for round := 0; round < 1 || time.Since(start) < budget-2*ref.busy; round++ {
		g0 := readGC()
		b, _ := runCampaignBatch(p.specs, campaignWorkers)
		gc = gc.add(readGC().sub(g0))
		r.account(&b, fmt.Sprintf("campaign %d", round))
		if round == 0 {
			ref = b
		}
		elapsed = append(elapsed, b.busy.Seconds())
	}
	seq := runCampaignSequential(p.specs, p.kinds)
	r.account(&seq, "sequential pass")
	one, _ := runCampaignBatch(p.specs, 1)
	r.account(&one, "single-worker campaign")

	byKind := map[string][]float64{}
	for i, k := range seq.cells {
		byKind[k] = append(byKind[k], seq.shardMS[i])
	}
	for _, k := range campaignKinds {
		m["campaign.shard_ms_p50."+k] = median(byKind[k])
	}
	m["campaign.worker_efficiency"] = ratio(seq.busy.Seconds(), campaignWorkers*median(elapsed))
	if over := one.busy - seq.busy; over > 0 {
		m["campaign.overhead_share"] = ratio(float64(over), float64(one.busy))
	}
	m["runtime.gc_cpu_share"] = ratio(gc.gcCPU, gc.cpu)
	m["runtime.gc_cycles"] = float64(gc.cycles) / float64(len(elapsed))
	return ref
}
