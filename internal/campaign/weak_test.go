package campaign

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestWeakStressOneCore pins the weak hierarchy's recall under an upgrade
// fetch. A guard Invalidate that reaches the weak L2 while the L2's GetM
// for the same line is outstanding must be answered once the local copies
// are gone: the guard defers that GetM until the Invalidate is answered,
// so an L2 that waited for the grant instead wedged into the Guarantee 2c
// watchdog. That wedged every one-core weak stress shard; the first spec
// is the shrinker's reduction of one. The weak device's coverage classes
// count, and declare every pair the shards visit.
func TestWeakStressOneCore(t *testing.T) {
	texts := []string{"kind=stress host=hammer org=xg-weak seed=1 cpus=1 cores=1 stores=2"}
	for _, host := range []string{"hammer", "mesi"} {
		for seed := 1; seed <= 20; seed++ {
			texts = append(texts, fmt.Sprintf("kind=stress host=%s org=xg-weak seed=%d cores=1", host, seed))
		}
	}
	specs := make([]ShardSpec, len(texts))
	for i, text := range texts {
		spec, err := ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	rep := Run(specs, Options{Workers: 2})
	for i, sh := range rep.Shards {
		if sh.Err != nil || sh.Violations != 0 {
			t.Errorf("%s: %v, %d guard violations %v", texts[i], sh.Err, sh.Violations, sh.ByCode)
		}
	}
	classes := rep.CoverageClasses()
	for _, class := range []string{"weak.L1", "weak.L2"} {
		if !slices.Contains(classes, class) || rep.Cov[class].Visited() == 0 {
			t.Errorf("class %s counted nothing (classes %v)", class, classes)
		}
	}
	if u := rep.Undeclared(); len(u) != 0 {
		t.Errorf("undeclared transitions in %v", u)
	}
}

// TestParseSpecRefusesWeakStressCores: a weak stress shard with more than
// one core per device fails by design (a core sees a sibling's store only
// after a flush, and the tester does not flush), so its spec is refused
// with the reason; other kinds and one core are accepted.
func TestParseSpecRefusesWeakStressCores(t *testing.T) {
	for _, text := range []string{
		"kind=stress host=mesi org=xg-weak seed=1",
		"kind=stress host=hammer org=xg-weak seed=1 cores=2",
	} {
		if _, err := ParseSpec(text); err == nil || !strings.Contains(err.Error(), "cores=1") {
			t.Errorf("ParseSpec(%q) = %v, want a refusal naming cores=1", text, err)
		}
	}
	for _, text := range []string{
		"kind=stress host=mesi org=xg-weak seed=1 cores=1 accels=2",
		"kind=stress host=mesi org=xg-full/2L seed=1 cores=2",
		"kind=fuzz host=hammer org=xg-weak seed=1",
	} {
		if _, err := ParseSpec(text); err != nil {
			t.Errorf("ParseSpec(%q): %v", text, err)
		}
	}
}
