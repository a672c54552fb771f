package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"crossingguard/internal/config"
)

// TestCoverageGolden pins every string the coverage recorder renders —
// Summary, Missing, Snapshot and Unexpected of each controller class — for
// one recorded Hammer shard (two-level accelerator) and one MESI shard
// (single-level), after the report's merge into bare per-class coverages.
// The fixture predates the dense (state, event) tables: the names a
// report shows are independent of how visits are counted.
func TestCoverageGolden(t *testing.T) {
	rep := Run([]ShardSpec{
		{Kind: KindStress, Host: config.HostHammer, Org: config.OrgXGTxn2L, Seed: 11, CPUs: 2, Cores: 2, Stores: 20},
		{Kind: KindStress, Host: config.HostMESI, Org: config.OrgXGFull1L, Seed: 12, CPUs: 2, Cores: 2, Stores: 20},
	}, Options{Workers: 1})
	if rep.Failures() != 0 {
		t.Fatalf("golden shards failed: %+v", rep.Artifacts)
	}
	var b strings.Builder
	for _, name := range rep.CoverageClasses() {
		c := rep.Cov[name]
		fmt.Fprintf(&b, "%s\n  missing %q\n  unexpected %q\n", c.Summary(), c.Missing(), c.Unexpected)
		snap := c.Snapshot()
		pairs := make([]string, 0, len(snap))
		for p := range snap {
			pairs = append(pairs, p)
		}
		sort.Strings(pairs)
		for _, p := range pairs {
			fmt.Fprintf(&b, "  %s %d\n", p, snap[p])
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "coverage.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("coverage rendering drifted from golden (regenerate deliberately with -update):\n got:\n%s\nwant:\n%s", got, want)
	}
}
