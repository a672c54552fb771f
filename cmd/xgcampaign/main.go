// Command xgcampaign is the campaign runner, the one binary behind the
// paper's random testing: -mode stress is the §4.1 protocol stress test
// (E3) and -mode fuzz the §4.2 guard fuzz test (E4). It fans
// (configuration x seed) shards across a worker pool, merges
// per-controller coverage deterministically (output is byte-identical for
// a fixed shard set regardless of -workers), and captures a reproduction
// artifact for every failing shard.
//
// Usage:
//
//	xgcampaign [-mode stress|fuzz|chaos|recovery|multi|all] [-seeds N] [-workers N]
//	           [-budget 30s] [-stores N] [-messages N] [-cpus N] [-cores N]
//	           [-accels N]
//	           [-checked] [-consistency] [-coverage=false]
//	           [-spans] [-tracetail N] [-http :8080] [-heartbeat 5s]
//	           [-metrics out.json] [-trace out.jsonl] [-obs out.obs]
//	           [-perfetto out.json]
//	xgcampaign -repro 'kind=stress host=hammer org=xg-full/1L seed=3 ...'
//	xgcampaign -shrink 'kind=chaos host=hammer org=xg-full/1L seed=1 ...'
//
// Fixed-set mode runs (hosts x organizations x seeds 1..N). Budget mode
// (-budget) keeps drawing fresh seeds until the wall-clock budget
// expires. Both report shards/sec, stores/sec, and cumulative transition
// coverage to stderr as they go. -repro re-runs a single captured shard
// with the network trace enabled and dumps the trace tail on failure.
//
// -consistency records every core's completed loads and stores and runs
// the offline invariant checker (SWMR, data-value, write-serialization)
// over each shard's history wherever inline value verification applies;
// -obs exports the recorded observation log for cmd/xgcheck, and
// failing recorded shards embed an observation tail in their artifact.
// -shrink takes a failing shard spec and ddmin-shrinks its op budget,
// core counts, and fault plan while the failure reproduces, printing a
// minimal spec whose -repro replays the reduced failure.
//
// -mode chaos sweeps adversarial accelerator models x deterministic
// fault plans against guards armed with recall retries and quarantine;
// failure artifacts embed the fault plan (faults=...) so -repro replays
// the exact fault schedule. -mode all covers stress+fuzz (chaos is its
// own mode: quarantines are expected there and exit distinctly).
//
// -mode recovery sweeps flapping adversaries against guards armed for
// quarantine AND readmission (recover=5000 in every cell): the device
// trips quarantine, the guard drains and resets it, and the recovered
// device must run clean under the new epoch. A run where every
// readmitted device stays healthy exits 0; shards whose guard was still
// fencing at end of run count as quarantines (exit 3).
//
// -accels builds every machine with N accelerator devices, each behind
// its own guard (fuzz/chaos shards attach one attacker/adversary per
// device). -mode multi runs the dedicated accel-count sweep (org x accel
// count x fault preset) and ignores -accels.
//
// -spans turns on causal span tracing in every guard (per-crossing
// span-begin/-phase/-end events plus per-phase latency histograms,
// rendered by cmd/xgreport); -perfetto exports the traced shards as a
// Chrome-trace-event/Perfetto timeline (implies -spans and tracing) that
// loads in https://ui.perfetto.dev. -tracetail sets how many events each
// shard's trace ring keeps; failure artifacts record the size. -http
// serves live campaign telemetry while running: /metrics returns a JSON
// snapshot (progress counters plus completion-order merged metrics) and
// net/http/pprof is mounted for profiling; -heartbeat turns the stderr
// progress lines into one JSONL snapshot per interval. Both are advisory
// wall-clock views; the final report stays deterministic.
//
// Exit codes (documented in README.md): 0 all shards passed, 1 at least
// one guarantee violation / hang / crash / corruption or undeclared
// transition, 2 usage error, 3 all shards passed but at least one guard
// quarantined its accelerator.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -http mounts the profiling endpoints
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"crossingguard/internal/campaign"
	"crossingguard/internal/config"
)

var (
	mode     = flag.String("mode", "all", "shard kinds to run: stress, fuzz, chaos, recovery, multi, or all (= stress+fuzz)")
	seeds    = flag.Int("seeds", 5, "random seeds per configuration (fixed-set mode)")
	workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	budget   = flag.Duration("budget", 0, "wall-clock budget; nonzero switches to budgeted mode with unlimited seeds")
	stores   = flag.Int("stores", 100, "store/check rounds per location (stress shards)")
	messages = flag.Int("messages", 3000, "fuzz messages per shard (fuzz shards)")
	cpus     = flag.Int("cpus", 2, "CPU cores per machine")
	cores    = flag.Int("cores", 2, "accelerator cores per machine (stress shards)")
	accels   = flag.Int("accels", 1, "accelerator devices per machine, each behind its own guard")
	checked  = flag.Bool("checked", false, "fuzz: keep value checks on while the attacker shares pages (deliberately failing buggy-accelerator demo)")
	consist  = flag.Bool("consistency", false, "record per-core observations and run the offline invariant checker on every value-checked shard")
	coverage = flag.Bool("coverage", true, "print merged state/event coverage")
	repro    = flag.String("repro", "", "re-run one captured shard spec with tracing enabled")
	shrink   = flag.String("shrink", "", "ddmin-shrink a failing shard spec to a minimal still-failing repro")
	shrinkN  = flag.Int("shrink-runs", 120, "run budget for -shrink (shards executed)")
	metrics  = flag.String("metrics", "", "write merged metrics JSON to this file (render with cmd/xgreport)")
	trace    = flag.String("trace", "", "write merged trace JSONL to this file")
	obsOut   = flag.String("obs", "", "write the recorded observation log (xgobs v2, or v3 when guard epochs are present) to this file; needs -consistency")
	spans    = flag.Bool("spans", false, "enable causal span tracing in every guard (span events + per-phase latency histograms)")
	perfetto = flag.String("perfetto", "", "write a Chrome-trace-event/Perfetto timeline JSON to this file (implies -spans and tracing)")
	traceTl  = flag.Int("tracetail", campaign.DefaultTraceTail, "events kept per shard trace ring (recorded in failure artifacts)")
	httpAddr = flag.String("http", "", "serve live telemetry on this address (/metrics JSON + net/http/pprof) while the campaign runs")
	heartbt  = flag.Duration("heartbeat", 0, "write progress to stderr as one JSONL snapshot per interval while running")
)

func main() {
	flag.Parse()
	for _, f := range []struct {
		name   string
		v, min int
	}{{"seeds", *seeds, 1}, {"stores", *stores, 1}, {"messages", *messages, 1}, {"cpus", *cpus, 1},
		{"cores", *cores, 1}, {"workers", *workers, 0}, {"tracetail", *traceTl, 1}, {"shrink-runs", *shrinkN, 1}} {
		if f.v < f.min {
			fmt.Fprintf(os.Stderr, "xgcampaign: -%s %d is below the minimum of %d\n", f.name, f.v, f.min)
			os.Exit(campaign.ExitUsage)
		}
	}
	for _, f := range []struct {
		name string
		v    time.Duration
	}{{"budget", *budget}, {"heartbeat", *heartbt}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "xgcampaign: -%s %v is below the minimum of 0s\n", f.name, f.v)
			os.Exit(campaign.ExitUsage)
		}
	}
	if err := config.CheckSize(*cpus, *cores, *accels); err != nil {
		fmt.Fprintln(os.Stderr, "xgcampaign:", err)
		os.Exit(campaign.ExitUsage)
	}
	if *repro != "" {
		os.Exit(runRepro(*repro))
	}
	if *shrink != "" {
		os.Exit(runShrink(*shrink, *shrinkN))
	}

	base := sweep(*mode)
	if base == nil {
		fmt.Fprintf(os.Stderr, "xgcampaign: unknown -mode %q (want stress, fuzz, chaos, recovery, multi, or all)\n", *mode)
		os.Exit(campaign.ExitUsage)
	}
	if *mode != "multi" && *accels > 1 {
		for i := range base {
			base[i].Accels = *accels
		}
	}
	if *checked {
		for i := range base {
			if base[i].Kind == campaign.KindFuzz {
				base[i].CheckValues = true
			}
		}
	}
	if *consist || *obsOut != "" {
		for i := range base {
			base[i].Consistency = true
		}
	}
	if *spans || *perfetto != "" {
		for i := range base {
			base[i].Spans = true
		}
	}

	opt := campaign.Options{Workers: *workers, Progress: os.Stderr, Heartbeat: *heartbt,
		Trace: *trace != "" || *perfetto != "", TraceTail: *traceTl}
	if *httpAddr != "" {
		opt.Telemetry = campaign.NewTelemetry()
		http.Handle("/metrics", opt.Telemetry)
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "xgcampaign: -http:", err)
			}
		}()
	}
	var rep *campaign.Report
	if *budget > 0 {
		opt.Budget = *budget
		rep = campaign.RunBudget(campaign.BudgetGenerator(base), opt)
	} else {
		rep = campaign.Run(campaign.Seeded(base, *seeds), opt)
	}

	if err := rep.ExportFiles(*metrics, *trace, *obsOut); err != nil {
		fmt.Fprintln(os.Stderr, "xgcampaign:", err)
		os.Exit(campaign.ExitViolation)
	}
	if err := rep.ExportPerfetto(*perfetto, config.TrackOf); err != nil {
		fmt.Fprintln(os.Stderr, "xgcampaign:", err)
		os.Exit(campaign.ExitViolation)
	}
	printReport(rep)
	os.Exit(rep.ExitCode())
}

// sweep returns the seed-1 shards of mode under the flags, nil for an
// unknown mode.
func sweep(mode string) []campaign.ShardSpec {
	switch mode {
	case "stress":
		return campaign.StressSweep(1, *cpus, *cores, *stores)
	case "fuzz":
		return campaign.FuzzSweep(1, *cpus, *messages)
	case "chaos":
		return campaign.ChaosSweep(1, *cpus, *messages)
	case "recovery":
		return campaign.RecoverySweep(1, *cpus, *messages)
	case "multi":
		return campaign.MultiAccelSweep(1, *cpus, *stores, *messages)
	case "all":
		return append(sweep("stress"), sweep("fuzz")...)
	}
	return nil
}

func printReport(rep *campaign.Report) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "campaign: parallel stress/fuzz shards (paper §4.1/§4.2)")
	fmt.Fprintln(w, "kind\tconfiguration\tvariant\tshards\tstores\tchecked loads\tmsgs sent\tviolations\tfailures")

	// Group shard results by (kind, configuration, variant) preserving
	// first-appearance order, which is deterministic in the shard set.
	type groupKey struct {
		kind    campaign.Kind
		name    string
		variant string
	}
	type group struct {
		shards, failures               int
		stores, checks, sent, violates uint64
	}
	var order []groupKey
	groups := map[groupKey]*group{}
	for i := range rep.Shards {
		s := &rep.Shards[i]
		key := groupKey{s.Spec.Kind, s.Spec.Name(), variantOf(s.Spec)}
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.shards++
		g.stores += s.Res.Stores
		g.checks += s.Res.LoadChecks
		g.sent += s.Sent
		g.violates += s.Violations
		if s.Err != nil {
			g.failures++
		}
	}
	for _, key := range order {
		g := groups[key]
		verdict := "0"
		if g.failures > 0 {
			verdict = fmt.Sprintf("%d FAIL", g.failures)
		}
		fmt.Fprintf(w, "%v\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s\n",
			key.kind, key.name, key.variant, g.shards, g.stores, g.checks, g.sent, g.violates, verdict)
	}
	w.Flush()

	stores, _, checks, sent, violations := rep.Totals()
	secs := rep.Elapsed.Seconds()
	fmt.Printf("\n%d shards on %d workers in %.1fs (%.1f shards/s, %.0f stores/s); %d stores, %d checked loads, %d fuzz msgs, %d violations classified\n",
		len(rep.Shards), rep.Workers, secs,
		float64(len(rep.Shards))/secs, float64(stores)/secs, stores, checks, sent, violations)
	if rep.Quarantines > 0 {
		var injected uint64
		for i := range rep.Shards {
			injected += rep.Shards[i].Injected
		}
		fmt.Printf("chaos: %d faults injected, %d shards ended with the accelerator quarantined (degraded but safe; exit %d)\n",
			injected, rep.Quarantines, campaign.ExitQuarantine)
	}
	if rep.Recoveries > 0 {
		fmt.Printf("recovery: %d device reintegrations (quarantined accelerators drained, reset, and readmitted under a new epoch)\n",
			rep.Recoveries)
	}

	if *coverage && len(rep.Cov) > 0 {
		fmt.Println("\nstate/event coverage (visited pairs / declared-possible pairs), merged across shards:")
		fmt.Print(rep.CoverageTable())
	}

	if len(rep.ByCode) > 0 {
		fmt.Println("\nviolations detected, by guarantee / class:")
		var codes []string
		for c := range rep.ByCode {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		for _, c := range codes {
			fmt.Printf("  %-22s %8d\n", c, rep.ByCode[c])
		}
	}

	for _, a := range rep.Artifacts {
		fmt.Printf("\nFAILED shard %d (%s seed %d): %s\n  repro: %s\n",
			a.Spec.Index, a.Spec.Name(), a.Spec.Seed, a.Err, a.Repro)
		if a.TraceTail > 0 {
			fmt.Printf("  trace tail: last %d events captured (-tracetail)\n", a.TraceTail)
		}
	}
	for _, name := range rep.Undeclared() {
		fmt.Printf("\nFAILED: %s visited undeclared transitions: %v\n", name, rep.Cov[name].Unexpected)
	}
}

func variantOf(s campaign.ShardSpec) string {
	switch s.Kind {
	case campaign.KindFuzz:
		switch {
		case s.Confined:
			return "confined"
		case s.CheckValues:
			return "checked"
		}
		return "shared"
	case campaign.KindChaos:
		p := s.Faults
		p.Seed = 0 // group rows by fault profile, not per-seed schedule
		v := "faults=" + p.Spec()
		if s.Confined {
			v += "+confined"
		}
		return v
	}
	return "-"
}

func runRepro(spec string) int {
	s, err := campaign.ParseSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xgcampaign:", err)
		return campaign.ExitUsage
	}
	fmt.Printf("re-running shard: %s\n", campaign.FormatSpec(s))
	start := time.Now()
	res := campaign.RunShardTrace(s, true, *traceTl)
	fmt.Printf("stores=%d loads=%d checked=%d sent=%d faults=%d violations=%d recoveries=%d simtime=%d wall=%v\n",
		res.Res.Stores, res.Res.Loads, res.Res.LoadChecks, res.Sent, res.Injected, res.Violations,
		res.Recoveries, res.Res.EndTime, time.Since(start).Round(time.Millisecond))
	if res.Err == nil {
		if res.Quarantined {
			fmt.Println("PASS: shard completed with the accelerator quarantined (degraded but safe)")
			return campaign.ExitQuarantine
		}
		fmt.Println("PASS: shard completed cleanly")
		return campaign.ExitOK
	}
	fmt.Printf("FAIL (reproduced): %v\n", res.Err)
	if res.TraceDump != "" {
		fmt.Printf("\n--- network trace tail (last %d events) ---\n", res.TraceTail)
		fmt.Print(res.TraceDump)
	}
	if res.ObsDump != "" {
		fmt.Println()
		fmt.Print(res.ObsDump)
	}
	return campaign.ExitViolation
}

func runShrink(spec string, maxRuns int) int {
	s, err := campaign.ParseSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xgcampaign:", err)
		return campaign.ExitUsage
	}
	fmt.Printf("shrinking failing shard: %s\n", campaign.FormatSpec(s))
	start := time.Now()
	res, err := campaign.Shrink(s, campaign.ShrinkOptions{MaxRuns: maxRuns, Log: os.Stderr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "xgcampaign:", err)
		return campaign.ExitUsage
	}
	fmt.Printf("original failure: %s\n", res.OriginalErr)
	for _, step := range res.Steps {
		fmt.Printf("  reduced %s\n", step)
	}
	fmt.Printf("minimal failure:  %s\n", res.MinimalErr)
	fmt.Printf("%d runs in %v\n\nminimal spec: %s\n  repro: %s\n",
		res.Runs, time.Since(start).Round(time.Millisecond),
		campaign.FormatSpec(res.Minimal), res.Minimal.ReproCommand())
	return campaign.ExitOK
}
