package campaign

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestTelemetryObservesCampaign: a campaign run with a telemetry view
// attached folds every completed shard in, and the -http payload is
// well-formed JSON carrying both progress and merged metrics.
func TestTelemetryObservesCampaign(t *testing.T) {
	tel := NewTelemetry()
	rep := Run(smallSweep(), Options{Workers: 2, Telemetry: tel})
	snap := tel.Snapshot()
	if snap.Shards != len(rep.Shards) {
		t.Fatalf("telemetry saw %d shards, campaign ran %d", snap.Shards, len(rep.Shards))
	}
	if snap.Stores == 0 || snap.SimTicks == 0 {
		t.Fatalf("telemetry counters empty: %+v", snap)
	}

	rec := httptest.NewRecorder()
	tel.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var payload struct {
		Progress TelemetrySnapshot `json:"progress"`
		Metrics  struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("metrics endpoint served invalid JSON: %v", err)
	}
	if payload.Progress.Shards != len(rep.Shards) {
		t.Fatalf("served %d shards, want %d", payload.Progress.Shards, len(rep.Shards))
	}
	if payload.Metrics.Counters["guard.check.pass"] == 0 {
		t.Fatal("merged metrics missing guard.check.pass")
	}
}

// TestHeartbeatEmitsFinalLine: even a campaign shorter than the
// heartbeat interval records at least one JSONL line — the final
// snapshot written on shutdown — and every line parses, also when
// snapshots are taken while the workers are still folding shards in.
func TestHeartbeatEmitsFinalLine(t *testing.T) {
	for _, every := range []time.Duration{time.Hour, time.Millisecond} {
		var hb bytes.Buffer
		specs := smallSweep()
		Run(specs, Options{Workers: 2, Progress: &hb, Heartbeat: every})
		lines := strings.Split(strings.TrimSpace(hb.String()), "\n")
		if len(lines) < 1 || lines[0] == "" {
			t.Fatalf("heartbeat %v wrote nothing; want at least the final line", every)
		}
		var last TelemetrySnapshot
		for i, line := range lines {
			if err := json.Unmarshal([]byte(line), &last); err != nil {
				t.Fatalf("heartbeat %v line %d is not valid JSON: %v\n%s", every, i, err, line)
			}
		}
		if last.Shards != len(specs) {
			t.Fatalf("final heartbeat reports %d shards, want %d", last.Shards, len(specs))
		}
	}
}

// TestTelemetryNilSafe: campaigns that pass no telemetry view (every
// caller but -http) run on the runner's own and lose nothing.
func TestTelemetryNilSafe(t *testing.T) {
	rep := Run(smallSweep()[:1], Options{Workers: 1})
	if rep.Failures() != 0 {
		t.Fatalf("telemetry-free run failed: %+v", rep.Artifacts)
	}
	if len(rep.Shards) != 1 || rep.Shards[0].Res.Stores == 0 {
		t.Fatalf("telemetry-free run lost its shard: %+v", rep.Shards)
	}
}
