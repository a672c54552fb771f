// Command xgfuzz runs the paper's §4.2 safety evaluation (E4): it
// bombards Crossing Guard with streams of random coherence messages to
// random addresses — valid requests, stray responses, malformed payloads,
// and raw host-protocol types — while the CPUs run the random workload.
// The pass criterion is the paper's: "this fuzz testing never leads to a
// crash or deadlock" of the host, and every violation is detected and
// classified against the Figure 1 guarantees.
//
// Shards (one per configuration x variant x seed) run in parallel on the
// campaign worker pool; aggregation is deterministic, so output is
// identical for any -workers value.
//
// Usage:
//
//	xgfuzz [-seeds N] [-messages N] [-cpus N] [-workers N] [-consistency]
//	       [-spans] [-tracetail N] [-metrics out.json] [-trace out.jsonl]
//	       [-obs out.obs] [-perfetto out.json]
//
// -consistency records per-core observations on every shard and runs
// the offline invariant checker over confined/checked variants (an
// unconfined attacker may legitimately corrupt shared data, so only
// liveness is asserted there); -obs exports the observation log for
// cmd/xgcheck. -spans turns on causal span tracing in every guard;
// -perfetto exports the traced shards as a Chrome-trace-event/Perfetto
// timeline (implies -spans and tracing).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"crossingguard/internal/campaign"
	"crossingguard/internal/config"
)

var (
	seeds    = flag.Int("seeds", 5, "random seeds per configuration")
	messages = flag.Int("messages", 3000, "fuzz messages per run")
	cpus     = flag.Int("cpus", 2, "CPU cores")
	workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	consist  = flag.Bool("consistency", false, "record per-core observations; the offline checker runs on confined/checked shards")
	metrics  = flag.String("metrics", "", "write merged metrics JSON to this file (render with cmd/xgreport)")
	trace    = flag.String("trace", "", "write merged trace JSONL to this file")
	obsOut   = flag.String("obs", "", "write the recorded observation log (xgobs v1) to this file; needs -consistency")
	spans    = flag.Bool("spans", false, "enable causal span tracing in every guard (span events + per-phase latency histograms)")
	perfetto = flag.String("perfetto", "", "write a Chrome-trace-event/Perfetto timeline JSON to this file (implies -spans and tracing)")
	traceTl  = flag.Int("tracetail", campaign.DefaultTraceTail, "per-shard trace-ring capacity (events kept per shard); size generously when a complete span trace is needed")
)

func main() {
	flag.Parse()
	if err := config.CheckSize(*cpus, 0); err != nil {
		fmt.Fprintln(os.Stderr, "xgfuzz:", err)
		os.Exit(campaign.ExitUsage)
	}
	specs := campaign.FuzzSweep(*seeds, *cpus, *messages)
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
		fmt.Fprintln(os.Stderr, "xgfuzz:", err)
		os.Exit(campaign.ExitViolation)
	}
	if err := rep.ExportPerfetto(*perfetto, config.TrackOf); err != nil {
		fmt.Fprintln(os.Stderr, "xgfuzz:", err)
		os.Exit(campaign.ExitViolation)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "E4: fuzz testing Crossing Guard (paper §4.2)")
	fmt.Fprintln(w, "configuration\tvariant\tmsgs sent\tCPU ops checked\tviolations\tresult")

	type key struct {
		name    string
		variant string
	}
	type row struct {
		sent, checked, violations uint64
		failed                    error
	}
	var order []key
	rows := map[key]*row{}
	failures := 0
	for i := range rep.Shards {
		s := &rep.Shards[i]
		variant := "shared"
		if s.Spec.Confined {
			variant = "confined"
		}
		k := key{s.Spec.Name(), variant}
		r, ok := rows[k]
		if !ok {
			r = &row{}
			rows[k] = r
			order = append(order, k)
		}
		r.sent += s.Sent
		r.checked += s.Res.Loads
		r.violations += s.Violations
		if s.Err != nil && r.failed == nil {
			r.failed = s.Err
		}
	}
	for _, k := range order {
		r := rows[k]
		verdict := "PASS (no crash, no deadlock)"
		if r.failed != nil {
			verdict = "FAIL: " + r.failed.Error()
			failures++
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%s\n",
			k.name, k.variant, r.sent, r.checked, r.violations, verdict)
	}
	w.Flush()

	fmt.Println("\nviolations detected, by guarantee / class:")
	var codes []string
	for c := range rep.ByCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Printf("  %-22s %8d\n", c, rep.ByCode[c])
	}
	for _, a := range rep.Artifacts {
		fmt.Printf("\nFAILED shard %d (%s seed %d): %s\n  repro: %s\n",
			a.Spec.Index, a.Spec.Name(), a.Spec.Seed, a.Err, a.Repro)
	}
	if failures > 0 {
		os.Exit(campaign.ExitViolation)
	}
}
