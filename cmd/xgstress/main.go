// Command xgstress runs the paper's §4.1 protocol stress test (E3): the
// random load/store/check tester against all twelve cache organizations,
// with shrunken caches so replacements and races are frequent, reporting
// operations completed, data checks, and per-controller state/event
// coverage — the same accounting the paper used over its 22 compute-years
// of testing, at laptop scale.
//
// Shards (one per configuration x seed) run in parallel on the campaign
// worker pool; aggregation is deterministic, so output is identical for
// any -workers value.
//
// Usage:
//
//	xgstress [-seeds N] [-stores N] [-cpus N] [-cores N] [-workers N] [-coverage]
//	         [-consistency] [-spans] [-tracetail N] [-metrics out.json]
//	         [-trace out.jsonl] [-obs out.obs] [-perfetto out.json]
//
// -metrics exports the merged metrics registry (guard guarantee
// outcomes, host state transitions, network occupancy, crossing
// latency) as JSON; render it with cmd/xgreport. -trace exports every
// shard's trace-ring tail as JSONL. -consistency additionally records
// every core's completed loads and stores and runs the offline
// invariant checker (SWMR, data-value, write-serialization) over each
// shard's history; -obs exports the recorded observation log for
// cmd/xgcheck. -spans turns on causal span tracing in every guard
// (per-crossing phase histograms in the metrics export); -perfetto
// exports the traced shards as a Chrome-trace-event/Perfetto timeline
// (implies -spans and tracing). All files are byte-identical for a fixed
// flag set regardless of -workers.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"crossingguard/internal/campaign"
	"crossingguard/internal/config"
)

var (
	seeds    = flag.Int("seeds", 5, "random seeds per configuration")
	stores   = flag.Int("stores", 100, "store/check rounds per location")
	cpus     = flag.Int("cpus", 2, "CPU cores")
	cores    = flag.Int("cores", 2, "accelerator cores")
	workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	coverage = flag.Bool("coverage", true, "print state/event coverage")
	consist  = flag.Bool("consistency", false, "record per-core observations and run the offline invariant checker on every shard")
	metrics  = flag.String("metrics", "", "write merged metrics JSON to this file")
	trace    = flag.String("trace", "", "write merged trace JSONL to this file")
	obsOut   = flag.String("obs", "", "write the recorded observation log (xgobs v1) to this file; needs -consistency")
	spans    = flag.Bool("spans", false, "enable causal span tracing in every guard (span events + per-phase latency histograms)")
	perfetto = flag.String("perfetto", "", "write a Chrome-trace-event/Perfetto timeline JSON to this file (implies -spans and tracing)")
	traceTl  = flag.Int("tracetail", campaign.DefaultTraceTail, "per-shard trace-ring capacity (events kept per shard); size generously when a complete span trace is needed")
)

func main() {
	flag.Parse()
	if err := config.CheckSize(*cpus, *cores); err != nil {
		fmt.Fprintln(os.Stderr, "xgstress:", err)
		os.Exit(campaign.ExitUsage)
	}
	specs := campaign.StressSweep(*seeds, *cpus, *cores, *stores)
	if *consist || *obsOut != "" {
		for i := range specs {
			specs[i].Consistency = true
		}
	}
	if *spans || *perfetto != "" {
		for i := range specs {
			specs[i].Spans = true
		}
	}
	rep := campaign.Run(specs, campaign.Options{Workers: *workers,
		Trace: *trace != "" || *perfetto != "", TraceTail: *traceTl})
	if err := rep.ExportFiles(*metrics, *trace, *obsOut); err != nil {
		fmt.Fprintln(os.Stderr, "xgstress:", err)
		os.Exit(campaign.ExitViolation)
	}
	if err := rep.ExportPerfetto(*perfetto, config.TrackOf); err != nil {
		fmt.Fprintln(os.Stderr, "xgstress:", err)
		os.Exit(campaign.ExitViolation)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "E3: random protocol stress test (paper §4.1)")
	fmt.Fprintln(w, "configuration\tseeds\tstores\tchecked loads\terrors\tresult")

	// Group shards back into per-configuration rows, preserving sweep
	// order; shards arrive sorted by index, which nests seed innermost.
	type row struct {
		name          string
		stores, loads uint64
		failed        error
	}
	var rows []*row
	byName := map[string]*row{}
	failures := 0
	for i := range rep.Shards {
		s := &rep.Shards[i]
		r, ok := byName[s.Spec.Name()]
		if !ok {
			r = &row{name: s.Spec.Name()}
			byName[s.Spec.Name()] = r
			rows = append(rows, r)
		}
		r.stores += s.Res.Stores
		r.loads += s.Res.LoadChecks
		if s.Err != nil && r.failed == nil {
			r.failed = s.Err
		}
	}
	for _, r := range rows {
		verdict := "PASS"
		if r.failed != nil {
			verdict = "FAIL: " + r.failed.Error()
			failures++
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t0\t%s\n", r.name, *seeds, r.stores, r.loads, verdict)
	}
	w.Flush()

	if *coverage {
		fmt.Println("\nstate/event coverage (visited pairs / declared-possible pairs):")
		for _, name := range rep.CoverageClasses() {
			c := rep.Cov[name]
			fmt.Println("  " + c.Summary())
			if len(c.Unexpected) > 0 {
				fmt.Printf("  !! %s visited undeclared transitions: %v\n", name, c.Unexpected[:1])
				failures++
			}
		}
	}
	for _, a := range rep.Artifacts {
		fmt.Printf("\nFAILED shard %d (%s seed %d): %s\n  repro: %s\n",
			a.Spec.Index, a.Spec.Name(), a.Spec.Seed, a.Err, a.Repro)
	}
	if failures > 0 {
		os.Exit(campaign.ExitViolation)
	}
}
