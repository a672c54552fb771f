package main

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of one (metric, workload) row. There is no "unchanged": a row
// whose run-to-run spread is wider than its bound cannot show that, and
// reads unresolved instead.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within-bound"
	verdictMissing    = "missing"
)

// judge applies one end-to-end metric's bound to the parent's and the
// change's runs of one workload.
func judge(d metricDef, parent, change []float64) (verdict string, worsePct, spreadPct float64) {
	if len(parent) == 0 || len(change) == 0 {
		return verdictMissing, 0, 0
	}
	mp, mc := median(parent), median(change)
	// worse is the change's median movement in the bad direction, as a
	// share of the parent's median.
	worse := ratio(mc-mp, mp)
	if d.Better == higher {
		worse = -worse
	}
	spread := max(spreadShare(parent), spreadShare(change))
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if (d.Better == higher && c <= p) || (d.Better == lower && c >= p) {
				allBetter = false
			}
		}
	}
	switch {
	case worse > d.Bound:
		verdict = verdictWorse
	case allBetter:
		verdict = verdictBetter
	case spread > d.Bound:
		verdict = verdictUnresolved
	case -worse > spreadShare(parent) && worse < 0:
		verdict = verdictBetter
	default:
		verdict = verdictWithin
	}
	return verdict, 100 * worse, 100 * spread
}

type runKey struct {
	workload string
	trace    int
}

type seedKey struct {
	runKey
	seed int64
}

func groupRuns(set runSet) (byRun map[runKey][]record, bySeed map[seedKey]record) {
	byRun, bySeed = map[runKey][]record{}, map[seedKey]record{}
	for _, r := range set.Runs {
		k := runKey{r.Workload, r.Trace}
		byRun[k] = append(byRun[k], r)
		bySeed[seedKey{k, r.Seed}] = r // the last run of a seed stands for it
	}
	return byRun, bySeed
}

func metricValues(runs []record, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareFiles prints one row per (metric, workload) and exits 1 when any
// end-to-end row is worse or any simulated result differs.
func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	var sets [2]runSet
	for i, path := range []string{parentPath, changePath} {
		var err error
		if sets[i], err = readRunSet(path); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	return compareSets(sets[0], sets[1], stdout)
}

func compareSets(parent, change runSet, stdout io.Writer) int {
	o := &report{w: stdout}
	if len(parent.Runs) > 0 && len(change.Runs) > 0 {
		o.printf("parent: %s", parent.Runs[0].Meta)
		o.printf("change: %s", change.Runs[0].Meta)
	}
	pRuns, pSeeds := groupRuns(parent)
	cRuns, cSeeds := groupRuns(change)
	tally := map[string]int{}

	o.printf("\nend-to-end (median of runs; worse%% is movement in the bad direction; spread is IQR/median)")
	o.printf("%-13s %-22s %5s %13s %13s %8s %8s %7s  %s", "workload", "metric", "runs", "parent", "change", "worse%", "spread%", "bound%", "verdict")
	for _, w := range workloads {
		k := runKey{w.Name, 0}
		if len(pRuns[k]) == 0 && len(cRuns[k]) == 0 {
			continue
		}
		for _, d := range endToEnd {
			pv, cv := metricValues(pRuns[k], d.Name), metricValues(cRuns[k], d.Name)
			verdict, worse, spread := judge(d, pv, cv)
			tally[verdict]++
			o.printf("%-13s %-22s %2d/%-2d %13.6g %13.6g %+8.2f %8.2f %7.1f  %s", w.Name, d.Name,
				len(pv), len(cv), median(pv), median(cv), worse, spread, 100*d.Bound, verdict)
		}
	}

	o.printf("\nsimulated results on runs of the same (workload, trace, seed): sim_fingerprint and every exact metric")
	var keys []seedKey
	for k := range pSeeds {
		if _, ok := cSeeds[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.seed < b.seed
	})
	different := 0
	allDefs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, k := range keys {
		p, c := pSeeds[k], cSeeds[k]
		var diffs []string
		if p.Fingerprint != c.Fingerprint {
			diffs = append(diffs, fmt.Sprintf("sim_fingerprint %s -> %s", p.Fingerprint, c.Fingerprint))
		}
		for _, d := range allDefs {
			pv, pok := p.Metrics[d.Name]
			cv, cok := c.Metrics[d.Name]
			if d.Exact && pok && cok && pv.Value != cv.Value {
				diffs = append(diffs, fmt.Sprintf("%s %g -> %g", d.Name, pv.Value, cv.Value))
			}
		}
		if !p.Correct || !c.Correct {
			diffs = append(diffs, fmt.Sprintf("failed ops %d -> %d", p.Failed, c.Failed))
		}
		if len(diffs) == 0 {
			o.printf("%-13s trace=%d seed=%-4d identical", k.workload, k.trace, k.seed)
			continue
		}
		different++
		for _, d := range diffs {
			o.printf("%-13s trace=%d seed=%-4d DIFFERENT %s", k.workload, k.trace, k.seed, d)
		}
	}
	if len(keys) == 0 {
		o.printf("(no seed was run on both sides)")
	}

	o.printf("\nper-layer (median of traced runs; no bounds: these locate a change, they do not judge it)")
	for _, w := range workloads {
		k := runKey{w.Name, 1}
		if len(pRuns[k]) == 0 || len(cRuns[k]) == 0 {
			continue
		}
		for _, d := range perLayer {
			mp, mc := median(metricValues(pRuns[k], d.Name)), median(metricValues(cRuns[k], d.Name))
			if mp == 0 && mc == 0 {
				continue
			}
			o.printf("%-13s %-38s %13.6g %13.6g %+8.2f%%", w.Name, d.Name, mp, mc, 100*ratio(mc-mp, mp))
		}
	}

	o.printf("\nsummary: %d better, %d within-bound, %d unresolved, %d worse, %d missing; %d seed(s) with different simulated results",
		tally[verdictBetter], tally[verdictWithin], tally[verdictUnresolved], tally[verdictWorse], tally[verdictMissing], different)
	if tally[verdictWorse] > 0 || different > 0 {
		return 1
	}
	return 0
}
