package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"crossingguard/internal/config"
	"crossingguard/internal/tester"
)

// smallSweep is a quick mixed shard set covering both kinds and hosts.
func smallSweep() []ShardSpec {
	specs := []ShardSpec{
		{Kind: KindStress, Host: config.HostHammer, Org: config.OrgXGFull1L, Seed: 1, CPUs: 2, Cores: 2, Stores: 10},
		{Kind: KindStress, Host: config.HostMESI, Org: config.OrgXGTxn2L, Seed: 2, CPUs: 2, Cores: 2, Stores: 10},
		{Kind: KindStress, Host: config.HostHammer, Org: config.OrgAccelSide, Seed: 3, CPUs: 2, Cores: 2, Stores: 10},
		{Kind: KindFuzz, Host: config.HostHammer, Org: config.OrgXGTxn1L, Seed: 1, CPUs: 2, Messages: 300},
		{Kind: KindFuzz, Host: config.HostMESI, Org: config.OrgXGFull2L, Seed: 2, CPUs: 2, Messages: 300, Confined: true},
	}
	return specs
}

// TestDeterministicAcrossWorkers is the campaign's core guarantee: the
// same fixed seed set produces a byte-identical report (per-shard
// results, merged coverage, violation accounting) for any worker count,
// despite arbitrary goroutine scheduling.
func TestDeterministicAcrossWorkers(t *testing.T) {
	var baseline *Report
	for _, workers := range []int{1, 4, 16} {
		rep := Run(smallSweep(), Options{Workers: workers})
		if len(rep.Shards) != len(smallSweep()) {
			t.Fatalf("workers=%d: %d shards, want %d", workers, len(rep.Shards), len(smallSweep()))
		}
		if baseline == nil {
			baseline = rep
			continue
		}
		if got, want := rep.CoverageTable(), baseline.CoverageTable(); got != want {
			t.Errorf("workers=%d: coverage table differs from workers=1:\n got:\n%s\nwant:\n%s", workers, got, want)
		}
		for name, c := range rep.Cov {
			if w := baseline.Cov[name]; w == nil || !reflect.DeepEqual(c.Snapshot(), w.Snapshot()) {
				t.Errorf("workers=%d: coverage class %s differs", workers, name)
			}
		}
		if !reflect.DeepEqual(rep.ByCode, baseline.ByCode) {
			t.Errorf("workers=%d: violation counts differ: %v vs %v", workers, rep.ByCode, baseline.ByCode)
		}
		for i := range rep.Shards {
			got, want := &rep.Shards[i], &baseline.Shards[i]
			if got.Spec.Index != i || want.Spec.Index != i {
				t.Fatalf("workers=%d: shard %d misordered (index %d vs %d)", workers, i, got.Spec.Index, want.Spec.Index)
			}
			if got.Res != want.Res || got.Sent != want.Sent || got.Violations != want.Violations {
				t.Errorf("workers=%d shard %d: result %+v/%d/%d, want %+v/%d/%d",
					workers, i, got.Res, got.Sent, got.Violations, want.Res, want.Sent, want.Violations)
			}
			if !reflect.DeepEqual(got.Unexpected, want.Unexpected) {
				t.Errorf("workers=%d shard %d: undeclared transitions %v, want %v", workers, i, got.Unexpected, want.Unexpected)
			}
		}
	}
}

// TestFailureArtifactRepro seeds a deliberate failure — a fuzzing
// accelerator sharing the CPUs' pages while value checks stay on — and
// checks the captured artifact's printed spec deterministically
// reproduces the identical failure.
func TestFailureArtifactRepro(t *testing.T) {
	bad := ShardSpec{Kind: KindFuzz, Host: config.HostHammer, Org: config.OrgXGFull1L,
		Seed: 1, CPUs: 2, Messages: 500, CheckValues: true}
	rep := Run([]ShardSpec{bad}, Options{Workers: 2})
	if rep.Failures() != 1 {
		t.Fatalf("expected 1 failure, got %d", rep.Failures())
	}
	art := rep.Artifacts[0]
	if !strings.Contains(art.Err, "DATA ERROR") {
		t.Fatalf("unexpected failure: %s", art.Err)
	}
	if !strings.Contains(art.Repro, "xgcampaign -repro") {
		t.Fatalf("artifact repro command malformed: %q", art.Repro)
	}

	// Round-trip the printed spec and re-run it: same failure, exactly.
	parsed, err := ParseSpec(FormatSpec(art.Spec))
	if err != nil {
		t.Fatalf("ParseSpec(FormatSpec) failed: %v", err)
	}
	for i := 0; i < 2; i++ {
		res := RunShard(parsed, true)
		if res.Err == nil {
			t.Fatal("repro run passed; want the captured failure")
		}
		if res.Err.Error() != art.Err {
			t.Fatalf("repro failure differs:\n got: %s\nwant: %s", res.Err, art.Err)
		}
		if res.TraceDump == "" {
			t.Fatal("repro run with tracing produced no trace dump")
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := append(StressSweep(2, 2, 3, 50), FuzzSweep(2, 4, 700)...)
	specs = append(specs, ShardSpec{Kind: KindFuzz, Host: config.HostMESI, Org: config.OrgXGTxn2L,
		Seed: 9, CPUs: 2, Messages: 100, CheckValues: true})
	for _, s := range specs {
		text := FormatSpec(s)
		got, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		s.Cores = got.Cores // fuzz specs don't carry cores; parser default is fine
		if s.Kind == KindFuzz {
			s.Stores = got.Stores
		}
		if FormatSpec(got) != text || got.Seed != s.Seed || got.Confined != s.Confined ||
			got.CheckValues != s.CheckValues || got.Kind != s.Kind {
			t.Fatalf("round trip %q: got %+v", text, got)
		}
	}
	for _, bad := range []string{
		"", "kind=stress", "kind=blah host=hammer org=xg-full/1L seed=1",
		"kind=stress host=risc org=xg-full/1L seed=1",
		"kind=stress host=hammer org=nope seed=1",
		"kind=stress host=hammer org=xg-full/1L seed=x",
		"kind=stress host=hammer org=xg-full/1L seed=1 stores=0",
		"kind=stress host=hammer org=xg-full/1L seed=1 seed=2",
		"kind=stress host=hammer org=xg-full/1L seed=1 junk",
		"kind=stress host=hammer org=xg-full/1L seed=1 what=ever",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", bad)
		}
	}
}

// TestSpecSizeLimits: cpus, cores and devices at their limits parse and
// run on every kind of machine; one past any limit is a parse error, never
// a node collision inside config.Build or a machine too big to build.
func TestSpecSizeLimits(t *testing.T) {
	for _, host := range []string{"hammer", "mesi"} {
		for _, org := range []string{"accel-side", "xg-full/1L", "xg-txn/2L"} {
			for _, c := range []struct {
				cpus, cores, accels int
				ok                  bool
			}{
				{config.MaxCPUs, config.MaxAccelCores, 1, true},
				{2, 1, config.MaxAccels, true},
				{config.MaxCPUs + 1, 2, 1, false},
				{2, config.MaxAccelCores + 1, 1, false},
				{2, 1, config.MaxAccels + 1, false},
			} {
				text := fmt.Sprintf("kind=stress host=%s org=%s seed=1 stores=1 cpus=%d cores=%d accels=%d",
					host, org, c.cpus, c.cores, c.accels)
				spec, err := ParseSpec(text)
				if !c.ok {
					if err == nil {
						t.Errorf("ParseSpec(%q) accepted an oversized machine", text)
					}
					continue
				}
				if err != nil {
					t.Fatalf("ParseSpec(%q): %v", text, err)
				}
				if res := RunShard(spec, false); res.Err != nil {
					t.Errorf("%q: %v", text, res.Err)
				}
			}
		}
	}
}

// TestBudgetMode bounds the time-budgeted path: it must run at least one
// full shard, stop within a sane multiple of the budget, and aggregate
// deterministically over whatever set completed.
func TestBudgetMode(t *testing.T) {
	base := []ShardSpec{{Kind: KindStress, Host: config.HostHammer, Org: config.OrgXGFull1L,
		CPUs: 2, Cores: 2, Stores: 5}}
	start := time.Now()
	rep := RunBudget(BudgetGenerator(base), Options{Workers: 2, Budget: 300 * time.Millisecond})
	if len(rep.Shards) == 0 {
		t.Fatal("budget run completed no shards")
	}
	if rep.Failures() != 0 {
		t.Fatalf("budget run failed: %+v", rep.Artifacts)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("budget run overshot: %v", el)
	}
	// Seeds advance one per cycle: shard i must carry seed i+1.
	for i := range rep.Shards {
		if want := int64(i + 1); rep.Shards[i].Spec.Seed != want {
			t.Fatalf("budget shard %d has seed %d, want %d", i, rep.Shards[i].Spec.Seed, want)
		}
	}
}

// TestPanicCapture: a panicking shard must become a captured artifact,
// not kill the worker pool.
func TestPanicCapture(t *testing.T) {
	specs := smallSweep()[:1]
	specs = append(specs, ShardSpec{Custom: func(bool) (tester.System, tester.Config) {
		panic("injected shard panic")
	}})
	rep := Run(specs, Options{Workers: 2})
	if len(rep.Shards) != 2 {
		t.Fatalf("%d shards, want 2", len(rep.Shards))
	}
	if rep.Failures() != 1 {
		t.Fatalf("%d failures, want 1", rep.Failures())
	}
	if !strings.Contains(rep.Artifacts[0].Err, "PANIC: injected shard panic") {
		t.Fatalf("artifact %q does not classify the panic", rep.Artifacts[0].Err)
	}
	if rep.Shards[0].Err != nil {
		t.Fatalf("healthy shard poisoned by neighbor panic: %v", rep.Shards[0].Err)
	}
}

func TestReportTotals(t *testing.T) {
	rep := Run(smallSweep(), Options{Workers: 2})
	stores, loads, checks, sent, violations := rep.Totals()
	if stores == 0 || loads == 0 || checks == 0 {
		t.Fatalf("empty totals: stores=%d loads=%d checks=%d", stores, loads, checks)
	}
	if sent == 0 || violations == 0 {
		t.Fatalf("fuzz shards produced no attack traffic: sent=%d violations=%d", sent, violations)
	}
	if rep.Failures() != 0 {
		for _, a := range rep.Artifacts {
			t.Errorf("unexpected failure: %s (%s)", a.Err, a.Repro)
		}
	}
	if got := fmt.Sprint(rep.CoverageClasses()); !strings.Contains(got, "hammer.cache") {
		t.Fatalf("coverage classes missing host caches: %v", got)
	}
}
