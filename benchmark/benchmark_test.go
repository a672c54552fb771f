package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
)

// firstPerCell trims a generated shard list to one shard per cell, so the
// tests run every configuration without running a full batch.
func firstPerCell(shards []machineShard) []machineShard {
	var out []machineShard
	seen := map[string]bool{}
	for _, sh := range shards {
		if !seen[sh.Cell] {
			seen[sh.Cell] = true
			out = append(out, sh)
		}
	}
	return out
}

func TestLayerSwitchCoversEveryController(t *testing.T) {
	var specs []config.Spec
	for _, host := range hosts {
		for _, org := range config.AllOrgs {
			specs = append(specs, config.Spec{Host: host, Org: org, Small: true})
		}
		specs = append(specs,
			config.Spec{Host: host, Org: config.OrgXGWeak, Small: true},
			config.Spec{Host: host, Org: config.OrgXGTxn2L, Accels: 4, Small: true})
	}
	for _, spec := range specs {
		sys := config.Build(spec)
		nodes := 0
		// The fabric has no node iterator; Build's ids all sit below
		// Accels*DeviceStride + the device-0 layout.
		for id := coherence.NodeID(0); id < 5*config.DeviceStride; id++ {
			c := sys.Fab.Node(id)
			if c == nil {
				continue
			}
			nodes++
			if l := layerOf(c); l == layerUnknown || l == layerHarness {
				t.Errorf("%s: controller %s (%T) maps to layer %v", spec.Name(), c.Name(), c, l)
			}
		}
		if want := len(sys.Sequencers()) + len(sys.Guards) + 1; nodes < want {
			t.Errorf("%s: found %d controllers, want at least %d", spec.Name(), nodes, want)
		}
	}
}

func TestCampaignPlanShape(t *testing.T) {
	specs, kinds := campaignShards(5)
	perKind := map[string]int{}
	for i, sp := range specs {
		perKind[kinds[i]]++
		if sp.Seed != specs[0].Seed || sp.Seed < 1 {
			t.Fatalf("shard %d has seed %d, the batch's is %d", i, sp.Seed, specs[0].Seed)
		}
	}
	want := map[string]int{"fuzz": 16, "chaos": 248, "recovery": 8, "multi": 160}
	for _, k := range campaignKinds {
		if perKind[k] != want[k] {
			t.Errorf("%s sweep has %d shards, want %d", k, perKind[k], want[k])
		}
	}
	if other, _ := campaignShards(6); other[0].Seed == specs[0].Seed {
		t.Errorf("seeds 5 and 6 generate the same shard seed %d", specs[0].Seed)
	}
}

func TestAttributionSumsToRunTime(t *testing.T) {
	shards := firstPerCell(stressXG(1))
	sink := newTraceSink()
	var run time.Duration
	b := runMachineBatch(shards,
		runMode{attach: func(_ *machineShard, sys *config.System) { sink.attach(sys) }},
		func(_ *machineShard, sr *shardRun) { sink.finish(sr.run); run += sr.run })
	if b.failed != 0 {
		t.Fatalf("traced batch failed: %v", b.errs)
	}
	var attributed int64
	for _, a := range sink.acc {
		attributed += a.NS
	}
	if off := math.Abs(float64(attributed)-float64(run)) / float64(run); off > 0.02 {
		t.Errorf("layers sum to %d ns, the batch ran %d ns: off by %.1f%%", attributed, run, 100*off)
	}
	if sink.acc[layerUnknown].Intervals != 0 {
		t.Errorf("%d intervals landed on an unknown layer", sink.acc[layerUnknown].Intervals)
	}
	if sink.acc[layerCore].Recv == 0 || sink.acc[layerSeq].Recv == 0 {
		t.Errorf("no deliveries attributed to the guard or the sequencers: %+v", sink.acc)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]int{5: 50, 19: 50, 40: 75, 100: 90, 199: 90, 200: 95, 432: 95, 5000: 95} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", n, got, want)
		}
	}
	for n := 1; n <= 3000; n++ {
		p := tailPercentile(n)
		if beyond := float64(n) * float64(100-p) / 100; p != 50 && beyond < 10 {
			t.Errorf("n=%d: p%d leaves only %.1f samples beyond", n, p, beyond)
		}
	}
}

func TestReplayCostDropsDisturbedReplays(t *testing.T) {
	// Two units replayed eight times; a hiccup lands on three replays of the
	// first and on one of the second. Neither cost moves.
	passes := [][]float64{{5, 9}, {50, 9}, {5, 9}, {40, 9}, {5, 90}, {5, 9}, {60, 9}, {5, 9}}
	if got := replayCost(passes); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Errorf("replayCost = %v, want [5 9]", got)
	}
	if got := replayCost([][]float64{{7, 3}, {6, 4}}); got[0] != 6 || got[1] != 3 {
		t.Errorf("replayCost of two passes = %v, want the faster replay of each: [6 3]", got)
	}
	if got := replayCost(nil); got != nil {
		t.Errorf("replayCost(nil) = %v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4, 8}); q1 != 1.25 || q2 != 3 || q3 != 7 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lowerIsBetter := metricDef{Name: "shard_ms_p50", Better: lower, Bound: 0.10}
	higherIsBetter := metricDef{Name: "memops_per_s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98}
	noisy := []float64{100, 130, 80, 110, 70, 120}
	for _, c := range []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           string
	}{
		{"slower by more than the bound", lowerIsBetter, steady, []float64{115, 116, 114, 115, 117, 113}, verdictWorse},
		{"throughput down by more than the bound", higherIsBetter, steady, []float64{85, 86, 84, 85, 87, 83}, verdictWorse},
		{"inside the bound, tight runs", lowerIsBetter, steady, []float64{103, 104, 102, 103, 105, 101}, verdictWithin},
		{"inside the bound, spread wider than it", lowerIsBetter, noisy, []float64{104, 133, 82, 111, 73, 125}, verdictUnresolved},
		{"every run better", lowerIsBetter, steady, []float64{90, 91, 89, 90, 92, 88}, verdictBetter},
		{"every run better despite spread", higherIsBetter, noisy, []float64{140, 150, 160, 170, 180, 190}, verdictBetter},
		{"nothing to compare", lowerIsBetter, steady, nil, verdictMissing},
	} {
		if got, _, _ := judge(c.def, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalogue %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(d metricDef, name, unit, better string, bound float64) {
		if d.Name != name || d.Unit != unit || d.Better != better || d.Bound != bound {
			t.Errorf("catalogue has %+v, BENCHMARK.json has %s %s %s %v", d, name, unit, better, bound)
		}
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for i, d := range endToEnd {
		e := bj.EndToEnd[i]
		check(d, e.Name, e.Unit, e.Better, e.Bound)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		e := bj.PerLayer[i]
		check(d, e.Name, e.Unit, e.Better, 0)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestRunsPrintTheCatalogue drives both modes of a cut-down guarded
// workload end to end: the gate must pass (equal fingerprints across
// untraced, traced, spans-on and recorded batches, no stray metric) and
// the final line must carry exactly the catalogue's names.
func TestRunsPrintTheCatalogue(t *testing.T) {
	w := &workloadDef{Name: "stress_xg", Why: "test", overheadRows: true,
		machines: func(seed int64) []machineShard { return firstPerCell(stressXG(seed)) }}
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var out bytes.Buffer
		rec := runOne(w, 7, 0.05, trace, t.TempDir(), &out)
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Fatalf("trace=%d: gate failed: %v\n%s", trace, rec.Problems, out.String())
		}
		if len(rec.Metrics) != len(defs) {
			t.Errorf("trace=%d: %d metrics printed, catalogue has %d", trace, len(rec.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := rec.Metrics[d.Name]
			if !ok || v.Unit != d.Unit {
				t.Errorf("trace=%d: metric %s missing or with unit %q", trace, d.Name, v.Unit)
			}
			if trace == 0 && v.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v.Value)
			}
		}
	}
}
