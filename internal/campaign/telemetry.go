package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/obs"
)

// Telemetry is the live, advisory view of one running campaign: workers
// fold each shard in as it completes, so the contents depend on
// scheduling and wall-clock time and are deliberately NOT part of the
// deterministic report (which is rebuilt in shard-index order after the
// pool drains from the results collected here). It backs the progress
// lines and -heartbeat snapshots written to Options.Progress and
// xgcampaign's -http metrics endpoint; reading it mid-run is always safe.
type Telemetry struct {
	mu          sync.Mutex
	start       time.Time
	results     []ShardResult
	failures    int
	quarantines int
	recoveries  uint64
	violations  uint64
	stores      uint64
	sent        uint64
	ticks       uint64
	// reg merges the shards' metrics registries for the -http payload; it
	// is nil unless something reads it. cov is the campaign's coverage by
	// controller class: visit counts add and declarations union in any
	// order, so each passed shard merges its machine's in as it finishes
	// (mergeCoverage) and the report takes it over.
	reg *obs.Registry
	cov map[string]*coherence.Coverage
}

// NewTelemetry returns a telemetry view that also merges the shards'
// metrics registries; pass it as Options.Telemetry and serve it (it
// implements http.Handler) or snapshot it.
func NewTelemetry() *Telemetry {
	return &Telemetry{start: time.Now(), reg: obs.NewRegistry()}
}

// observe folds one completed shard in.
func (t *Telemetry) observe(res ShardResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.results = append(t.results, res)
	if res.Err != nil {
		t.failures++
	}
	if res.Quarantined {
		t.quarantines++
	}
	t.recoveries += res.Recoveries
	t.violations += res.Violations
	t.stores += res.Res.Stores
	t.sent += res.Sent
	t.ticks += uint64(res.Res.EndTime)
	if t.reg != nil {
		t.reg.Merge(res.Obs)
	}
}

// mergeCoverage folds every controller coverage of sys into t's (t nil:
// nowhere) and returns the undeclared pairs they visited, by class, in
// controller order, for the report to list in shard order.
func (t *Telemetry) mergeCoverage(sys *config.System) map[string][]string {
	var unexpected map[string][]string
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	sys.Coverages(func(cov *coherence.Coverage) {
		if len(cov.Unexpected) > 0 {
			if unexpected == nil {
				unexpected = map[string][]string{}
			}
			unexpected[cov.Name()] = append(unexpected[cov.Name()], cov.Unexpected...)
		}
		if t == nil {
			return
		}
		c := t.cov[cov.Name()]
		if c == nil {
			// A bare coverage takes the class's table and declarations from
			// the first instance merged into it.
			c = coherence.NewCoverage(cov.Name(), nil)
			t.cov[cov.Name()] = c
		}
		c.Merge(cov)
	})
	return unexpected
}

// TelemetrySnapshot is one point-in-time progress record: a -heartbeat
// JSONL line, and the "progress" section of the -http payload.
type TelemetrySnapshot struct {
	// ElapsedSec is wall-clock seconds since the telemetry was created.
	ElapsedSec float64 `json:"elapsed_sec"`
	// Shards, Failures, and Quarantines count completed shards and their
	// outcomes so far.
	Shards      int `json:"shards"`
	Failures    int `json:"failures"`
	Quarantines int `json:"quarantines"`
	// Recoveries and Violations total guard reintegrations and classified
	// protocol violations across completed shards.
	Recoveries uint64 `json:"recoveries"`
	Violations uint64 `json:"violations"`
	// Stores and Sent total tester stores and attack messages injected.
	Stores uint64 `json:"stores"`
	Sent   uint64 `json:"sent"`
	// SimTicks sums the shards' simulated end times; TicksPerSec divides
	// it by elapsed wall-clock time (simulation throughput).
	SimTicks    uint64  `json:"sim_ticks"`
	TicksPerSec float64 `json:"ticks_per_sec"`
}

// Snapshot returns the current progress counters.
func (t *Telemetry) Snapshot() TelemetrySnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TelemetrySnapshot{
		ElapsedSec:  time.Since(t.start).Seconds(),
		Shards:      len(t.results),
		Failures:    t.failures,
		Quarantines: t.quarantines,
		Recoveries:  t.recoveries,
		Violations:  t.violations,
		Stores:      t.stores,
		Sent:        t.sent,
		SimTicks:    t.ticks,
	}
	if s.ElapsedSec > 0 {
		s.TicksPerSec = float64(s.SimTicks) / s.ElapsedSec
	}
	return s
}

// TelemetryPayload is the full -http metrics document: live progress
// plus the metrics registries of completed shards merged in completion
// order (advisory; the deterministic merge is the final report's).
type TelemetryPayload struct {
	// Progress is the current counter snapshot.
	Progress TelemetrySnapshot `json:"progress"`
	// Metrics is the completion-order merged registry snapshot.
	Metrics obs.Snapshot `json:"metrics"`
}

// Payload captures the progress counters and merged metrics together.
func (t *Telemetry) Payload() TelemetryPayload {
	p := TelemetryPayload{Progress: t.Snapshot()}
	t.mu.Lock()
	p.Metrics = t.reg.Snapshot()
	t.mu.Unlock()
	return p
}

// ServeHTTP implements http.Handler, serving the payload as indented
// JSON — the body behind xgcampaign -http's /metrics endpoint.
func (t *Telemetry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(t.Payload()) //nolint:errcheck // a dropped client is not our error
}

// report writes progress lines to w until stop closes: a human line every
// second, or with a heartbeat one JSON snapshot per heartbeat interval and
// a final one at stop, so even a sub-interval campaign records its end
// state. The runner waits for it, so w outlives the lines.
func (t *Telemetry) report(w io.Writer, heartbeat time.Duration, stop <-chan struct{}) {
	every := heartbeat
	if every <= 0 {
		every = time.Second
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-stop:
			if heartbeat > 0 {
				enc.Encode(t.Snapshot()) //nolint:errcheck // best-effort progress line
			}
			return
		case <-tick.C:
			if heartbeat > 0 {
				enc.Encode(t.Snapshot()) //nolint:errcheck // best-effort progress line
			} else {
				fmt.Fprintln(w, t.progressLine())
			}
		}
	}
}

// progressLine renders throughput so far and the share of declared
// state/event pairs the completed shards visited.
func (t *Telemetry) progressLine() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	el := time.Since(t.start).Seconds()
	shards := len(t.results)
	line := fmt.Sprintf("t=%4.0fs  shards=%d (%.1f/s)  stores=%d (%.0f/s)",
		el, shards, float64(shards)/el, t.stores, float64(t.stores)/el)
	var visited, possible int
	for _, c := range t.cov {
		visited += c.Visited()
		possible += c.Possible()
	}
	if possible > 0 {
		line += fmt.Sprintf("  coverage=%d/%d pairs (%.1f%%)", visited, possible, 100*float64(visited)/float64(possible))
	}
	return line
}
