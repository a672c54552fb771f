package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"crossingguard/internal/accel"
	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/faults"
)

// smallChaosSweep is a quick chaos shard set covering both hosts, three
// adversary models, and fault plans from clean to fully chaotic.
func smallChaosSweep() []ShardSpec {
	chaotic := faults.Plan{Seed: 99, Drop: 0.03, Dup: 0.03, Corrupt: 0.05,
		Delay: 0.1, MaxDelay: 200, Reorder: 0.1}
	return []ShardSpec{
		{Kind: KindChaos, Host: config.HostHammer, Org: config.OrgXGFull1L,
			Seed: 1, CPUs: 1, Messages: 120, Model: "babbler", Faults: chaotic},
		{Kind: KindChaos, Host: config.HostHammer, Org: config.OrgXGFull1L,
			Seed: 2, CPUs: 1, Messages: 120, Model: "silent", Confined: true,
			Faults: faults.Plan{Seed: 5, Drop: 0.05, Dup: 0.05}},
		{Kind: KindChaos, Host: config.HostMESI, Org: config.OrgXGTxn1L,
			Seed: 1, CPUs: 1, Messages: 120, Model: "slowpoke", Faults: chaotic},
	}
}

// Chaos specs — fault plan included — survive the repro round trip.
func TestChaosSpecRoundTrip(t *testing.T) {
	for _, s := range smallChaosSweep() {
		text := FormatSpec(s)
		got, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if got.Model != s.Model || got.Faults != s.Faults || got.Confined != s.Confined {
			t.Errorf("round trip %q lost fields: %+v", text, got)
		}
		if FormatSpec(got) != text {
			t.Errorf("re-format drifted: %q vs %q", FormatSpec(got), text)
		}
	}
	for _, bad := range []string{
		"kind=chaos host=hammer org=xg-full/1L seed=1",                             // no model
		"kind=chaos host=hammer org=xg-full/1L seed=1 model=gremlin",               // unknown model
		"kind=chaos host=hammer org=xg-full/1L seed=1 model=babbler faults=drop:2", // bad plan
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// The chaos acceptance property: a failure artifact's spec — fault plan
// embedded — replays the shard exactly, down to the trace event stream.
func TestChaosShardReplaysExactly(t *testing.T) {
	spec := smallChaosSweep()[0]
	first := RunShard(spec, true)
	parsed, err := ParseSpec(FormatSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	second := RunShard(parsed, true)

	if first.Sent != second.Sent || first.Injected != second.Injected ||
		first.Violations != second.Violations || first.Quarantined != second.Quarantined {
		t.Fatalf("replay diverged: sent %d/%d injected %d/%d violations %d/%d quarantined %v/%v",
			first.Sent, second.Sent, first.Injected, second.Injected,
			first.Violations, second.Violations, first.Quarantined, second.Quarantined)
	}
	if first.Res.EndTime != second.Res.EndTime {
		t.Fatalf("replay end time %d vs %d", first.Res.EndTime, second.Res.EndTime)
	}
	if !reflect.DeepEqual(first.Events, second.Events) {
		t.Fatal("replay trace events diverged")
	}
}

// Chaos shards are deterministic across worker counts, like every other
// shard kind: merged metrics and trace exports are byte-identical.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	var wantMetrics, wantTrace []byte
	for _, workers := range []int{1, 3} {
		rep := Run(smallChaosSweep(), Options{Workers: workers, Trace: true})
		if rep.Failures() != 0 {
			t.Fatalf("workers=%d: chaos shards failed: %+v", workers, rep.Artifacts)
		}
		var m, tr bytes.Buffer
		if err := rep.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteTrace(&tr); err != nil {
			t.Fatal(err)
		}
		if wantMetrics == nil {
			wantMetrics, wantTrace = m.Bytes(), tr.Bytes()
			continue
		}
		if !bytes.Equal(m.Bytes(), wantMetrics) {
			t.Errorf("workers=%d: metrics JSON differs", workers)
		}
		if !bytes.Equal(tr.Bytes(), wantTrace) {
			t.Errorf("workers=%d: trace JSONL differs", workers)
		}
	}
	if !bytes.Contains(wantMetrics, []byte("fault.injected")) {
		t.Error("chaos metrics export missing fault.injected")
	}
}

// Graceful degradation, end to end: no chaos shard hangs, crashes, or
// corrupts the host (shard Err nil), every injected fault is visible in
// the shard's metrics, and quarantines surface in the report and its
// exit code.
func TestChaosGracefulDegradation(t *testing.T) {
	rep := Run(smallChaosSweep(), Options{Workers: 2})
	quarantined := 0
	var injected uint64
	for i := range rep.Shards {
		s := &rep.Shards[i]
		if s.Err != nil {
			t.Fatalf("shard %d (%s): host-side failure under chaos: %v", i, s.Spec.Name(), s.Err)
		}
		injected += s.Injected
		if got := s.Obs.Counter("fault.injected").Value(); got != s.Injected {
			t.Errorf("shard %d: metrics fault.injected = %d, result says %d", i, got, s.Injected)
		}
		if s.Quarantined {
			quarantined++
			if s.Obs.Counter("guard.quarantine.entered").Value() == 0 {
				t.Errorf("shard %d: quarantined but guard.quarantine.entered not counted", i)
			}
		}
	}
	if injected == 0 {
		t.Error("sweep with chaotic fault plans injected nothing")
	}
	if rep.Quarantines != quarantined {
		t.Errorf("report Quarantines = %d, shards say %d", rep.Quarantines, quarantined)
	}
	want := ExitOK
	if quarantined > 0 {
		want = ExitQuarantine
	}
	if rep.ExitCode() != want {
		t.Errorf("ExitCode = %d, want %d", rep.ExitCode(), want)
	}
}

// Every adversary model completes against a clean fabric without a
// host-side failure (the model sweep ChaosSweep enumerates).
func TestChaosAllModelsComplete(t *testing.T) {
	for _, m := range accel.AllAdvModels {
		spec := ShardSpec{Kind: KindChaos, Host: config.HostHammer, Org: config.OrgXGFull1L,
			Seed: 1, CPUs: 1, Messages: 100, Model: m.String()}
		res := RunShard(spec, false)
		if res.Err != nil {
			t.Errorf("model %v: %v", m, res.Err)
		}
	}
}

// The documented exit-code contract (README): violations dominate
// quarantines; quarantines dominate success.
func TestReportExitCode(t *testing.T) {
	if got := (&Report{}).ExitCode(); got != ExitOK {
		t.Errorf("clean report exit = %d, want %d", got, ExitOK)
	}
	q := &Report{Quarantines: 2}
	if got := q.ExitCode(); got != ExitQuarantine {
		t.Errorf("quarantine report exit = %d, want %d", got, ExitQuarantine)
	}
	f := &Report{Quarantines: 1, Artifacts: []Artifact{{Err: "boom"}}}
	if got := f.ExitCode(); got != ExitViolation {
		t.Errorf("failing report exit = %d, want %d", got, ExitViolation)
	}
}

// TestUndeclaredTransitionFailsCampaign: the paper's verdict is "no crash,
// no deadlock, no missing transition", so one visited pair outside a
// controller's declared table fails a campaign whose shards all passed,
// and the report names the class.
func TestUndeclaredTransitionFailsCampaign(t *testing.T) {
	cov := coherence.NewCoverage("accel.L1", nil)
	cov.Unexpected = []string{"M/Load"}
	rep := &Report{Quarantines: 1, Cov: map[string]*coherence.Coverage{"accel.L1": cov}}
	if got := rep.ExitCode(); got != ExitViolation {
		t.Errorf("undeclared-transition report exit = %d, want %d", got, ExitViolation)
	}
	if got := rep.Undeclared(); !reflect.DeepEqual(got, []string{"accel.L1"}) {
		t.Errorf("Undeclared() = %v, want [accel.L1]", got)
	}
}

// ChaosSweep enumerates (host x org x model x preset x confinement):
// every cell is a valid, parseable chaos spec.
func TestChaosSweepShape(t *testing.T) {
	specs := ChaosSweep(1, 2, 200)
	if len(specs) == 0 {
		t.Fatal("empty sweep")
	}
	models := map[string]bool{}
	plans := map[string]bool{}
	for _, s := range specs {
		if s.Kind != KindChaos {
			t.Fatalf("non-chaos shard in sweep: %+v", s)
		}
		models[s.Model] = true
		p := s.Faults
		p.Seed = 0
		plans[p.Spec()] = true
		if _, err := ParseSpec(FormatSpec(s)); err != nil {
			t.Fatalf("sweep produced unparseable spec %q: %v", FormatSpec(s), err)
		}
	}
	if len(models) != len(accel.AllAdvModels) {
		t.Errorf("sweep covers %d models, want %d", len(models), len(accel.AllAdvModels))
	}
	if len(plans) != len(faults.Presets) {
		t.Errorf("sweep covers %d fault profiles, want %d", len(plans), len(faults.Presets))
	}
}
