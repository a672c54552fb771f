package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins the exit-code contract README.md documents for every
// binary under cmd/: 0 clean, 1 a violation (or a -diff regression), 2 bad
// usage or unreadable input, 3 a quarantine. It builds the binaries once
// and checks each case's exit code and first line of stderr, so a usage
// error is one named line and never a panic or a silent run.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries; skipped in -short")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "crossingguard/cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// One store of 7, then a load of the line: the clean log reads 7 back,
	// the convicted one a value nobody stored.
	clean := write("clean.obs", "# xgobs v2\n0 0 0 store 0x1000 0x07 1 5\n0 0 1 load 0x1000 0x07 10 12\n")
	convicted := write("convicted.obs", "# xgobs v2\n0 0 0 store 0x1000 0x07 1 5\n0 0 1 load 0x1000 0x09 10 12\n")
	before := write("before.json", `{"counters": {"guard.violation.XG.G2b": 1}}`)
	after := write("after.json", `{"counters": {"guard.violation.XG.G2b": 3}}`)
	twice := write("twice.json", `{"counters": {"guard.violation.XG.G2b": 1}}`+"\n"+`{"counters": {"guard.violation.XG.G2b": 3}}`)
	null := write("null.json", "null\n")
	missing := filepath.Join(dir, "missing")
	const chaos = "kind=chaos host=hammer org=xg-full/1L seed=1 cpus=2 messages=3000 "

	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stderr string // first line
	}{
		{"clean stress run", []string{"xgcampaign", "-mode", "stress", "-seeds", "1", "-stores", "2", "-cpus", "1", "-cores", "1"}, 0, ""},
		{"unknown mode", []string{"xgcampaign", "-mode", "bogus"}, 2,
			`xgcampaign: unknown -mode "bogus" (want stress, fuzz, chaos, recovery, multi, or all)`},
		{"negative fuzz messages", []string{"xgcampaign", "-messages", "-1", "-mode", "fuzz"}, 2,
			"xgcampaign: -messages -1 is below the minimum of 1"},
		{"no stores", []string{"xgcampaign", "-stores", "0"}, 2, "xgcampaign: -stores 0 is below the minimum of 1"},
		{"no seeds", []string{"xgcampaign", "-seeds", "0"}, 2, "xgcampaign: -seeds 0 is below the minimum of 1"},
		{"negative workers", []string{"xgcampaign", "-mode", "stress", "-seeds", "1", "-stores", "2", "-workers", "-1"}, 2,
			"xgcampaign: -workers -1 is below the minimum of 0"},
		{"no trace tail", []string{"xgcampaign", "-mode", "stress", "-seeds", "1", "-stores", "2", "-tracetail", "0"}, 2,
			"xgcampaign: -tracetail 0 is below the minimum of 1"},
		{"no shrink runs", []string{"xgcampaign", "-shrink-runs", "0", "-shrink", chaos + "model=stalewriter checked=1"}, 2,
			"xgcampaign: -shrink-runs 0 is below the minimum of 1"},
		{"negative budget", []string{"xgcampaign", "-mode", "stress", "-seeds", "1", "-stores", "2", "-budget", "-1s"}, 2,
			"xgcampaign: -budget -1s is below the minimum of 0s"},
		{"negative heartbeat", []string{"xgcampaign", "-mode", "stress", "-seeds", "1", "-stores", "2", "-heartbeat", "-5s"}, 2,
			"xgcampaign: -heartbeat -5s is below the minimum of 0s"},
		{"too many CPUs", []string{"xgcampaign", "-cpus", "31"}, 2, "xgcampaign: 31 CPU cores exceeds the limit of 30"},
		{"too many devices", []string{"xgcampaign", "-accels", "65"}, 2,
			"xgcampaign: 65 accelerator devices exceeds the limit of 64"},
		{"too many devices in a repro", []string{"xgcampaign", "-repro", "kind=stress host=mesi org=xg-full/1L seed=1 accels=100000000"}, 2,
			"xgcampaign: campaign: 100000000 accelerator devices exceeds the limit of 64"},
		{"weak stress on two cores", []string{"xgcampaign", "-repro", "kind=stress host=mesi org=xg-weak seed=1 cores=2"}, 2,
			"xgcampaign: campaign: stress on xg-weak needs cores=1: its cores see each other's stores only after a flush " +
				`(got "kind=stress host=mesi org=xg-weak seed=1 cores=2")`},
		{"stalewriter convicted", []string{"xgcampaign", "-repro", chaos + "model=stalewriter checked=1"}, 1, ""},
		{"babbler quarantined", []string{"xgcampaign", "-repro", chaos + "model=babbler"}, 3, ""},
		{"clean log", []string{"xgcheck", clean}, 0, ""},
		{"convicted log", []string{"xgcheck", convicted}, 1, ""},
		{"missing log", []string{"xgcheck", missing}, 2, "xgcheck: open " + missing + ": no such file or directory"},
		{"violations grew", []string{"xgreport", "-diff", before, after}, 1, ""},
		{"missing metrics", []string{"xgreport", missing}, 2, "xgreport: open " + missing + ": no such file or directory"},
		{"two metrics objects", []string{"xgreport", twice}, 2, "xgreport: obs: metrics JSON has data after its object"},
		{"null metrics", []string{"xgreport", null}, 2, "xgreport: obs: metrics JSON is null, not an object"},
		{"null baseline", []string{"xgreport", "-diff", null, after}, 2, "xgreport: obs: metrics JSON is null, not an object"},
		{"unknown host", []string{"xgtrace", "-host", "bogus"}, 2, `xgtrace: unknown host "bogus" (want hammer or mesi)`},
		{"unknown experiment", []string{"xgsim", "-experiment", "bogus"}, 2, `xgsim: unknown -experiment "bogus" (see -help)`},
		{"no accesses", []string{"xgsim", "-accesses", "0", "-experiment", "puts"}, 2, "xgsim: -accesses 0 is below the minimum of 1"},
		{"no accelerator cores", []string{"xgsim", "-cores", "0"}, 2, "xgsim: -cores 0 is below the minimum of 1"},
		{"negative CPUs", []string{"xgsim", "-cpus", "-1"}, 2, "xgsim: -cpus -1 is below the minimum of 1"},
		{"too many accelerator cores", []string{"xgsim", "-cores", "21"}, 2, "xgsim: 21 accelerator cores exceeds the limit of 20"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(dir, c.args[0]), c.args[1:]...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatal(err)
				}
				code = ee.ExitCode()
			}
			first, _, _ := strings.Cut(stderr.String(), "\n")
			if code != c.code || first != c.stderr {
				t.Errorf("%s: exit %d, first stderr line %q; want exit %d, %q",
					strings.Join(c.args, " "), code, first, c.code, c.stderr)
			}
		})
	}
}
