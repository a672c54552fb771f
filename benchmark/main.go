// Command benchmark is the repository's one performance harness: four
// workloads, eight end-to-end metrics with regression bounds, a per-layer
// ledger (counts, traced host time, allocations), and a correctness gate.
// It measures every layer from outside, through the simulator's public
// APIs, and claims no gain itself. See README.md beside this file.
//
//	bash benchmark/run.sh                         # all workloads, untraced then traced
//	bash benchmark/run.sh --workload stress_xg --seed 3 --seconds 20 --trace 0
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (default: all, untraced then traced)")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same shards")
		seconds  = fs.Float64("seconds", 25, "seconds of timed batches")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (traced batches, counts, allocation ledger)")
		out      = fs.String("out", "", "append this run's record to a JSON run-set file (input of -compare)")
		outDir   = fs.String("outdir", "benchmark/out", "directory for the trace files of traced runs")
		compare  = fs.Bool("compare", false, "compare two run-set files: -compare parent.json change.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare parent.json change.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out runs.json]")
		return 2
	}

	type job struct {
		w     *workloadDef
		trace int
	}
	var jobs []job
	if *workload == "" {
		for i := range workloads {
			jobs = append(jobs, job{&workloads[i], 0}, job{&workloads[i], 1})
		}
	} else {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
			return 2
		}
		jobs = []job{{w, *trace}}
	}

	code := 0
	for _, j := range jobs {
		rec := runOne(j.w, *seed, *seconds, j.trace, *outDir, stdout)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		// The last line of a run is its result object.
		line, err := json.Marshal(result{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// result is the contract's final line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run as stored in a run-set file.
type record struct {
	Meta        provenance       `json:"meta"`
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Seconds     float64          `json:"seconds"`
	Trace       int              `json:"trace"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Fingerprint string           `json:"sim_fingerprint"`
	Metrics     map[string]value `json:"metrics"`
	Problems    []string         `json:"problems,omitempty"`
}

// runSet is the file -out appends to and -compare reads.
type runSet struct {
	Runs []record `json:"runs"`
}

// runOne runs one workload in one mode and prints its report.
func runOne(w *workloadDef, seed int64, seconds float64, trace int, outDir string, stdout io.Writer) record {
	o := &report{w: stdout}
	meta := readProvenance()
	o.printf("== %s  seed=%d  seconds=%g  trace=%d", w.Name, seed, seconds, trace)
	o.printf("  %s", w.Why)
	o.printf("  %s", meta)

	r := &run{w: w, seed: seed, out: o}
	var (
		m    metricSet
		defs []metricDef
	)
	if trace == 0 {
		m, defs = r.endToEnd(seconds), endToEnd
	} else {
		m, defs = r.perLayer(seconds, filepath.Join(outDir, "trace_"+w.Name+".json"), meta), perLayer
	}
	vals, stray := m.finish(defs)
	for _, name := range stray {
		r.failed++
		r.problems = append(r.problems, "metric outside the catalogue: "+name)
	}
	o.metrics(defs, vals)
	o.printf("  sim_fingerprint %s   ops attempted %d, failed %d", r.fp, r.attempted, r.failed)
	for _, p := range r.problems {
		o.printf("  FAIL %s", p)
	}
	return record{Meta: meta, Workload: w.Name, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Fingerprint: r.fp, Metrics: vals, Problems: r.problems}
}

func readRunSet(path string) (runSet, error) {
	var set runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func appendRecord(path string, rec record) error {
	set, err := readRunSet(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	set.Runs = append(set.Runs, rec)
	return writeJSON(path, set)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
