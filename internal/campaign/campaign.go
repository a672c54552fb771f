// Package campaign is the parallel stress/fuzz campaign runner: it fans
// (configuration x seed) shards of the paper's §4.1 random stress test
// and §4.2 guard fuzzer across a worker pool, one deterministic
// single-threaded simulation per goroutine, and aggregates results
// deterministically.
//
// The paper's evidence is volume — 22 compute-years of random testing —
// and each simulation here is deterministic and single-threaded by
// design, which makes shards embarrassingly parallel.
//
// Concurrency contract ("one engine per goroutine, no sharing"): a shard
// owns its entire simulated machine — engine, fabric, RNGs, backing
// memory, permission table, coverage recorders. Workers never touch
// another shard's state; the only cross-goroutine structures are the
// runner's own job channel, result list, and progress counters, all
// mutex- or channel-protected. Aggregation (coverage merge, artifact
// collection) happens after the pool drains, in shard-index order, so
// reports are byte-identical regardless of worker count or scheduling.
package campaign

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"crossingguard/internal/coherence"
	"crossingguard/internal/consistency"
	"crossingguard/internal/obs"
)

// Options configures a campaign run.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Budget, when nonzero, makes RunBudget keep drawing fresh shards
	// until the wall-clock budget expires (in-flight shards drain).
	Budget time.Duration
	// Trace attaches a per-shard trace-bus ring; every shard result then
	// carries its last-N structured events (exported via WriteTrace) and
	// failing shards additionally carry a rendered trace tail in their
	// artifact (the -repro path).
	Trace bool
	// TraceTail sets the per-shard trace-ring capacity (the -tracetail
	// flag); 0 means DefaultTraceTail. The chosen size is recorded in
	// every failure artifact.
	TraceTail int
	// Progress, when non-nil, receives one live progress line per second
	// while running (shards/sec, stores/sec, cumulative coverage) — or,
	// with Heartbeat set, one JSONL snapshot per Heartbeat interval plus a
	// final one.
	Progress io.Writer
	// Telemetry, when non-nil, is the run's live view, for a caller that
	// serves it (xgcampaign -http); otherwise the run keeps its own. The
	// deterministic report is unaffected.
	Telemetry *Telemetry
	// Heartbeat, when nonzero, turns the Progress lines into JSONL
	// snapshots, one per interval (xgcampaign -heartbeat).
	Heartbeat time.Duration
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Artifact captures everything needed to reproduce one failed shard.
type Artifact struct {
	Spec ShardSpec
	Err  string
	// Repro is a one-line shell command that deterministically re-runs
	// exactly this shard with tracing enabled.
	Repro string
	// TraceDump is the network trace tail, when tracing was enabled.
	TraceDump string
	// ObsDump is the observation tail, when the shard recorded
	// consistency observations.
	ObsDump string
	// TraceTail is the trace-ring capacity the shard ran with, recorded
	// so the artifact header states how much history TraceDump can hold.
	TraceTail int
}

// Report is the deterministic aggregate of a campaign.
type Report struct {
	// Shards holds every shard result in shard-index (dispatch) order,
	// independent of completion order.
	Shards []ShardResult
	// Artifacts lists failures in shard-index order.
	Artifacts []Artifact
	// Cov is per-controller-class coverage merged across shards in
	// shard-index order.
	Cov map[string]*coherence.Coverage
	// ByCode counts detected protocol violations per classified code.
	ByCode map[string]uint64
	// Metrics is every shard's metrics registry merged in shard-index
	// order, so exported metrics JSON is byte-identical regardless of
	// worker count.
	Metrics *obs.Registry
	// Elapsed is wall-clock time for the whole campaign (not part of
	// the deterministic payload).
	Elapsed time.Duration
	// Workers is the pool size used.
	Workers int
	// Quarantines counts shards with a guard still fencing its
	// accelerator at end of run (chaos campaigns; graceful degradation,
	// reported distinctly). Shards whose guards recovered and stayed
	// healthy do not count.
	Quarantines int
	// Recoveries totals guard reintegrations (device resets followed by
	// readmission) across all shards; nonzero only in recovery-armed
	// campaigns.
	Recoveries uint64
}

// Process exit codes shared by the campaign CLIs (xgcampaign, xgcheck),
// documented in README.md: a guarantee violation is always a distinct,
// nonzero exit; quarantine-triggered runs that otherwise passed get their
// own code so chaos CI can accept degradation while still failing on
// violations.
const (
	// ExitOK: every shard passed, no guard quarantined.
	ExitOK = 0
	// ExitViolation: at least one shard failed (guarantee violation,
	// hang, crash, or corruption) or some controller visited a transition
	// its table does not declare — the campaign's failure exit.
	ExitViolation = 1
	// ExitUsage: bad flags or spec (the conventional usage exit).
	ExitUsage = 2
	// ExitQuarantine: all shards passed but at least one guard fenced
	// its accelerator (expected under chaos; distinct so callers can
	// tell degraded-but-safe from fully clean).
	ExitQuarantine = 3
)

// ExitCode maps the report onto the documented process exit contract.
func (r *Report) ExitCode() int {
	if r.Failures() > 0 || len(r.Undeclared()) > 0 {
		return ExitViolation
	}
	if r.Quarantines > 0 {
		return ExitQuarantine
	}
	return ExitOK
}

// Totals sums the headline counters across all shards.
func (r *Report) Totals() (stores, loads, checks, sent, violations uint64) {
	for i := range r.Shards {
		s := &r.Shards[i]
		stores += s.Res.Stores
		loads += s.Res.Loads
		checks += s.Res.LoadChecks
		sent += s.Sent
		violations += s.Violations
	}
	return
}

// Failures counts failed shards.
func (r *Report) Failures() int { return len(r.Artifacts) }

// Undeclared names, sorted, the controller classes whose merged coverage
// visited a transition their table does not declare: the paper's "no
// missing transition" verdict, failed.
func (r *Report) Undeclared() []string {
	var out []string
	for _, name := range r.CoverageClasses() {
		if len(r.Cov[name].Unexpected) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// WriteMetrics exports the merged metrics registry as indented JSON
// (xgcampaign's -metrics flag; cmd/xgreport's input). Output is
// byte-identical for a fixed shard set regardless of worker count.
func (r *Report) WriteMetrics(w io.Writer) error { return r.Metrics.WriteJSON(w) }

// WriteTrace exports every shard's captured trace events as JSONL in
// shard-index order, each line tagged with its shard index (the -trace
// flag; requires Options.Trace). Output is byte-identical for a fixed
// shard set regardless of worker count.
func (r *Report) WriteTrace(w io.Writer) error {
	j := obs.NewJSONL(w)
	for i := range r.Shards {
		s := &r.Shards[i]
		j.Shard = s.Spec.Index
		for _, e := range s.Events {
			if err := j.Emit(e); err != nil {
				return err
			}
		}
	}
	return j.Flush()
}

// WritePerfetto exports every traced shard's events as one
// Chrome-trace-event/Perfetto JSON timeline (the -perfetto flag;
// requires Options.Trace): one process per shard, host and per-device
// guard tracks, nested span/phase slices, causal flow arrows, and
// instant markers. trackOf maps node ids onto tracks (config.TrackOf);
// nil anchors all flows on the host track. Output is byte-identical for
// a fixed shard set regardless of worker count.
func (r *Report) WritePerfetto(w io.Writer, trackOf func(coherence.NodeID) int) error {
	shards := make([]obs.ShardTrace, 0, len(r.Shards))
	for i := range r.Shards {
		s := &r.Shards[i]
		shards = append(shards, obs.ShardTrace{
			Index:  s.Spec.Index,
			Label:  fmt.Sprintf("%v %s seed %d", s.Spec.Kind, s.Spec.Name(), s.Spec.Seed),
			Events: s.Events,
		})
	}
	return obs.WritePerfetto(w, shards, obs.PerfettoOptions{TrackOf: trackOf})
}

// ExportPerfetto writes the Perfetto timeline export to path (empty =
// skip), the file-level twin of ExportFiles for the -perfetto flag.
func (r *Report) ExportPerfetto(path string, trackOf func(coherence.NodeID) int) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("campaign: writing perfetto trace: %w", err)
	}
	if err := r.WritePerfetto(f, trackOf); err != nil {
		f.Close()
		return fmt.Errorf("campaign: writing perfetto trace: %w", err)
	}
	return f.Close()
}

// WriteObs exports every recorded shard's observation stream as one
// xgobs log (v2, or v3 when guard epochs are present) in shard-index
// order, each line tagged with its shard index (the -obs flag; requires
// per-spec Consistency). cmd/xgcheck reads the result. Output is byte-identical for a fixed shard set
// regardless of worker count.
func (r *Report) WriteObs(w io.Writer) error {
	lw := consistency.NewLogWriter(w)
	// Recovery-armed campaigns must use the epoch-carrying v3 format even
	// if the first recorded shard happened not to reset its device.
	for i := range r.Shards {
		if r.Shards[i].Spec.RecoverAfter > 0 {
			lw.RequireV3()
			break
		}
	}
	for i := range r.Shards {
		s := &r.Shards[i]
		if len(s.Recs) == 0 {
			continue
		}
		if err := lw.Add(s.Spec.Index, s.Recs); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// ExportFiles writes the metrics JSON, trace JSONL, and/or observation
// log exports to the given paths; an empty path skips that export. This
// is the shared implementation behind the CLIs' -metrics, -trace, and
// -obs flags.
func (r *Report) ExportFiles(metricsPath, tracePath, obsPath string) error {
	write := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if metricsPath != "" {
		if err := write(metricsPath, r.WriteMetrics); err != nil {
			return fmt.Errorf("campaign: writing metrics: %w", err)
		}
	}
	if tracePath != "" {
		if err := write(tracePath, r.WriteTrace); err != nil {
			return fmt.Errorf("campaign: writing trace: %w", err)
		}
	}
	if obsPath != "" {
		if err := write(obsPath, r.WriteObs); err != nil {
			return fmt.Errorf("campaign: writing observation log: %w", err)
		}
	}
	return nil
}

// CoverageClasses returns the controller class names present, sorted.
func (r *Report) CoverageClasses() []string {
	out := make([]string, 0, len(r.Cov))
	for name := range r.Cov {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CoverageTable renders the merged per-class coverage, one Summary line
// per class in sorted order. The output is byte-identical for a given
// shard set regardless of worker count.
func (r *Report) CoverageTable() string {
	var b []byte
	for _, name := range r.CoverageClasses() {
		c := r.Cov[name]
		b = append(b, "  "...)
		b = append(b, c.Summary()...)
		b = append(b, '\n')
		if len(c.Unexpected) > 0 {
			b = append(b, fmt.Sprintf("  !! %s visited undeclared transitions: %v\n", name, c.Unexpected[:1])...)
		}
	}
	return string(b)
}

// Run executes a fixed shard set on the worker pool and returns the
// deterministic aggregate. Shard Index fields are assigned from slice
// position, overriding whatever the caller set.
func Run(specs []ShardSpec, opt Options) *Report {
	gen := func(i int) (ShardSpec, bool) {
		if i >= len(specs) {
			return ShardSpec{}, false
		}
		return specs[i], true
	}
	return run(gen, opt)
}

// RunBudget keeps drawing shards from gen (gen(i) must be deterministic
// in i) until opt.Budget of wall-clock time has elapsed, then drains
// in-flight shards and aggregates. The shard *set* depends on timing,
// but aggregation over whatever set ran is still performed in index
// order.
func RunBudget(gen func(i int) ShardSpec, opt Options) *Report {
	if opt.Budget <= 0 {
		opt.Budget = 10 * time.Second
	}
	deadline := time.Now().Add(opt.Budget)
	g := func(i int) (ShardSpec, bool) {
		if !time.Now().Before(deadline) {
			return ShardSpec{}, false
		}
		return gen(i), true
	}
	return run(g, opt)
}

func run(gen func(int) (ShardSpec, bool), opt Options) *Report {
	start := time.Now()
	workers := opt.workers()
	live := opt.Telemetry
	if live == nil {
		live = &Telemetry{start: start}
	}
	if live.cov == nil {
		live.cov = map[string]*coherence.Coverage{}
	}
	jobs := make(chan ShardSpec)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range jobs {
				live.observe(runShardSafe(spec, opt.Trace, opt.TraceTail, live))
			}
		}()
	}

	stop, reported := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(reported)
		if opt.Progress != nil {
			live.report(opt.Progress, opt.Heartbeat, stop)
		}
	}()

	for i := 0; ; i++ {
		spec, ok := gen(i)
		if !ok {
			break
		}
		spec.Index = i
		jobs <- spec
	}
	close(jobs)
	wg.Wait()
	close(stop)
	// Wait for the last progress line so the writer is never touched after
	// run returns.
	<-reported

	return aggregate(live.results, live.cov, time.Since(start), workers)
}

// aggregate rebuilds the deterministic report: results sorted by shard
// index and violation counts merged in that order. cov, the shards'
// coverage merged as they finished, becomes the report's, its Unexpected
// lists rebuilt in shard order.
func aggregate(results []ShardResult, cov map[string]*coherence.Coverage, elapsed time.Duration, workers int) *Report {
	sort.Slice(results, func(i, j int) bool { return results[i].Spec.Index < results[j].Spec.Index })
	for _, c := range cov {
		c.Unexpected = c.Unexpected[:0]
	}
	rep := &Report{
		Shards:  results,
		Cov:     cov,
		ByCode:  map[string]uint64{},
		Metrics: obs.NewRegistry(),
		Elapsed: elapsed,
		Workers: workers,
	}
	for i := range results {
		s := &results[i]
		rep.Metrics.Merge(s.Obs)
		for class, pairs := range s.Unexpected {
			rep.Cov[class].Unexpected = append(rep.Cov[class].Unexpected, pairs...)
		}
		if s.Quarantined {
			rep.Quarantines++
		}
		rep.Recoveries += s.Recoveries
		for code, n := range s.ByCode {
			rep.ByCode[code] += n
		}
		if s.Err != nil {
			rep.Artifacts = append(rep.Artifacts, Artifact{
				Spec:      s.Spec,
				Err:       s.Err.Error(),
				Repro:     s.Spec.ReproCommand(),
				TraceDump: s.TraceDump,
				ObsDump:   s.ObsDump,
				TraceTail: s.TraceTail,
			})
		}
	}
	return rep
}

// runShardSafe converts a shard panic into a captured failure instead of
// killing the whole pool: the fuzzer's promise is "never crashes", so a
// panic IS a finding, not an excuse to lose the campaign.
func runShardSafe(spec ShardSpec, trace bool, tail int, live *Telemetry) (res ShardResult) {
	defer func() {
		if r := recover(); r != nil {
			res.Spec = spec
			res.Err = fmt.Errorf("PANIC: %v", r)
		}
	}()
	return runShard(spec, trace, tail, live)
}
