package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance stamps every output file: which code, toolchain and machine
// produced the numbers.
type provenance struct {
	GitRev     string `json:"git_rev"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func (p provenance) String() string {
	dirty := ""
	if p.Dirty {
		dirty = "+dirty"
	}
	return fmt.Sprintf("rev %s%s  %s  nproc=%d GOMAXPROCS=%d  %s",
		p.GitRev, dirty, p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.CPUModel)
}

// readProvenance takes the revision from the VCS stamp go build leaves in
// the binary; a checkout that is not a git repository reads "unknown".
func readProvenance() provenance {
	p := provenance{GitRev: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitRev = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// report writes the human-readable part of a run: everything above the
// final JSON line.
type report struct{ w io.Writer }

func (o *report) printf(format string, args ...any) {
	fmt.Fprintf(o.w, format+"\n", args...)
}

// metrics prints every metric by name with its unit.
func (o *report) metrics(defs []metricDef, vals map[string]value) {
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better, bound %g%%)", d.Better, 100*d.Bound)
		}
		o.printf("  %-38s %16.6g %-8s%s", d.Name, vals[d.Name].Value, d.Unit, bound)
	}
}

// cellTable prints the median of ms per cell, cells in first-seen order.
func (o *report) cellTable(title string, cells []string, ms []float64) {
	byCell := map[string][]float64{}
	var order []string
	for i, c := range cells {
		if _, seen := byCell[c]; !seen {
			order = append(order, c)
		}
		byCell[c] = append(byCell[c], ms[i])
	}
	o.printf("  %s:", title)
	for _, c := range order {
		o.printf("    %-34s %9.3f ms  (n=%d)", c, median(byCell[c]), len(byCell[c]))
	}
}
