package main

// The metric catalogue is the single source for names, units, directions
// and regression bounds: the final JSON line, the report, -compare and
// BENCHMARK.json (checked by TestCatalogueMatchesBenchmarkJSON) all read it.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics have none.
	Bound float64
	// Exact marks numbers the deterministic simulator fixes for a given
	// seed (counts and simulated time): -compare demands equality on
	// runs of the same (workload, seed).
	Exact bool
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd lists what a user of the simulator pays for. The bounds are
// wider than ISSUE 11's table (8/8/8/15/2/2/0/15 %), for two measured
// reasons (README, "Steadiness"). The driver's contract takes each metric's
// spread over ten runs with ten different seeds and refuses a benchmark
// whose spread exceeds the bound, one bound serving all four workloads:
// campaign_adv moves 2% in allocs_per_memop and 1% in sim_ticks_per_memop
// from seed to seed alone. And host speed on the 2-core VM wanders for
// minutes at a time: within one set of ten runs of this same commit
// stress_base spread 11% in memops_per_s and 14.5% in shard_ms_p50 (and the
// driver's machine is noisier than this one), so the host-time rows take the
// contract's cap. sim_ticks_per_memop repeats exactly for one seed, which
// -compare checks through Exact instead of the bound.
var endToEnd = []metricDef{
	{Name: "memops_per_s", Unit: "ops/s", Better: higher, Bound: 0.25},
	{Name: "shards_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "shard_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "shard_ms_p95", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "allocs_per_memop", Unit: "count", Better: lower, Bound: 0.08},
	{Name: "alloc_bytes_per_memop", Unit: "B", Better: lower, Bound: 0.04},
	{Name: "sim_ticks_per_memop", Unit: "ticks", Better: lower, Bound: 0.04, Exact: true},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// trafficLayers are the layers that own fabric endpoints: the traced run
// attributes deliveries and host time to them.
var trafficLayers = []string{"hostproto.hammer", "hostproto.mesi", "core", "accel", "seq"}

// ledgerLayers are the packages the allocation ledger attributes to;
// "runtime" collects stacks with no crossingguard/internal frame and
// "benchmark" the harness's own allocations inside a batch.
var ledgerLayers = []string{
	"sim", "network", "coherence", "mem", "cacheset", "perm", "stats", "obs",
	"tester", "workload", "config", "hostproto.hammer", "hostproto.mesi", "core",
	"accel", "seq", "fuzz", "faults", "consistency", "campaign", "runtime", "benchmark",
}

// campaignKinds are the four sweeps campaign_adv concatenates.
var campaignKinds = []string{"fuzz", "chaos", "recovery", "multi"}

// perLayer is built once: fixed rows plus one row per (layer, metric).
// A metric a workload cannot exercise (core.* on stress_base, campaign.*
// outside campaign_adv, the overhead rows outside stress_xg) reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	count := func(name, unit string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: lower, Exact: true}
	}
	timed := func(name, unit, better string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better}
	}
	defs := []metricDef{
		count("sim.events_per_memop", "count"),
		count("sim.timer_events_per_memop", "count"),
		timed("sim.ns_per_event", "ns", lower),
		timed("sim.est_share", "share", lower),
		timed("sim.ticks_per_s", "ticks/s", higher),
		timed("network.ns_per_send", "ns", lower),
		count("network.msgs_per_memop", "count"),
		count("network.bytes_per_memop", "B"),
		timed("network.est_share", "share", lower),
		count("network.inflight_max", "count"),
		count("coherence.transitions_per_memop", "count"),
	}
	for _, l := range trafficLayers {
		defs = append(defs,
			count(l+".recv_per_memop", "count"),
			timed(l+".busy_share", "share", lower),
			timed(l+".ns_per_recv", "ns", lower))
	}
	for _, l := range ledgerLayers {
		// Allocation counts repeat closely but not exactly (map growth,
		// profiler bucket bookkeeping), so they are not Exact.
		defs = append(defs, timed(l+".allocs_per_memop", "count", lower))
	}
	defs = append(defs,
		timed("ledger.coverage", "share", higher),
		count("core.crossings_per_memop", "count"),
		count("core.crossing_ticks_p50", "ticks"),
		count("core.crossing_ticks_p99", "ticks"),
		count("core.violations_per_shard", "count"),
		count("core.recall_retries_per_shard", "count"),
		count("core.recoveries_per_shard", "count"),
		count("faults.injected_per_shard", "count"),
		count("fuzz.sent_per_shard", "count"),
		timed("config.build_ms_p50", "ms", lower),
		timed("config.build_share", "share", lower),
		timed("config.allocs_per_build", "count", lower),
		timed("campaign.worker_efficiency", "share", higher),
		timed("campaign.overhead_share", "share", lower),
	)
	for _, k := range campaignKinds {
		defs = append(defs, timed("campaign.shard_ms_p50."+k, "ms", lower))
	}
	defs = append(defs,
		count("workload.puts_frac", "share"),
		count("workload.xg_slowdown", "ratio"),
		timed("obs.trace_overhead_pct", "%", lower),
		timed("obs.spans_overhead_pct", "%", lower),
		count("obs.events_per_memop", "count"),
		timed("consistency.recording_overhead_pct", "%", lower),
		timed("consistency.check_ns_per_rec", "ns", lower),
		timed("runtime.gc_cpu_share", "share", lower),
		timed("runtime.gc_cycles", "count", lower),
		timed("runtime.peak_heap_mb", "MB", lower),
	)
	return defs
}

// value is one reported number in the final JSON line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run; finish fills every catalogue
// name (absent ones read 0) and rejects names outside the catalogue.
type metricSet map[string]float64

func (m metricSet) finish(defs []metricDef) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		out[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	var stray []string
	for name := range m {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	return out, stray
}
