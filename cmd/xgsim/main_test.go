package main

import (
	"bytes"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"

	"crossingguard/internal/config"
)

var update = flag.Bool("update", false, "rewrite testdata/xgsim.golden")

const goldenPath = "testdata/xgsim.golden"

// TestExperiments runs every experiment once with the default flags and
// holds the reproduction's claims to them:
//   - the printed tables equal testdata/xgsim.golden (go test ./cmd/xgsim
//     -update rewrites it);
//   - EXPERIMENTS.md's E5 table equals the golden's E5 rows;
//   - each paper verdict holds on the same results. A known deviation
//     from the paper is an exception pinned by name, and the test fails
//     when the deviation goes away, so the exception cannot outlive it.
func TestExperiments(t *testing.T) {
	var out bytes.Buffer
	secs := runAll(newLab(defaults), "all", &out)
	if *update {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if line, got, want, ok := firstDiff(out.String(), string(golden)); !ok {
		t.Errorf("output differs from %s at line %d (rerun with -update if intended):\n got: %q\nwant: %q",
			goldenPath, line, got, want)
	}

	t.Run("EXPERIMENTS.md E5", func(t *testing.T) {
		doc, err := os.ReadFile("../../EXPERIMENTS.md")
		if err != nil {
			t.Fatal(err)
		}
		want := goldenRows(string(golden), "E5:")
		got := docRows(string(doc), "## E5")
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("EXPERIMENTS.md's E5 table has %d rows, the golden's %d", len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("EXPERIMENTS.md E5 row %d = %q, golden has %q", i, got[i], want[i])
			}
		}
	})

	t.Run("E1", func(t *testing.T) {
		// The printed matrix is Table 1's shape: 5 states by 8 events,
		// with 23 implemented cells and "-" in the rest.
		m := get[matrix](t, secs, "table1")
		if len(m.rows) != 5 || len(m.events) != 8 {
			t.Fatalf("E1 is %d states by %d events, want 5 by 8", len(m.rows), len(m.events))
		}
		implemented := 0
		for _, r := range m.rows {
			if len(r) != len(m.events)+1 {
				t.Fatalf("E1 row %q has %d cells, want %d", r[0], len(r)-1, len(m.events))
			}
			for _, c := range r[1:] {
				if c != "-" {
					implemented++
				}
			}
		}
		if implemented != 23 {
			t.Errorf("E1 has %d implemented cells, want 23", implemented)
		}
	})

	t.Run("E2", func(t *testing.T) {
		// Deviation: the paper gives the MESI L1 six transients; ours
		// splits GetM's awaiting-data and awaiting-acks phases into two.
		want := map[string]int{"accel L1 (XG iface)": 1, "MESI host L1": 7, "Hammer host cache": 8}
		for _, r := range get[complexityTable](t, secs, "complexity") {
			if r.transient != want[r.cache] {
				t.Errorf("%s: %d transient states, want %d", r.cache, r.transient, want[r.cache])
			}
		}
	})

	t.Run("E5", func(t *testing.T) {
		s := get[sweep](t, secs, "perf")
		// Deviation: the Transactional guard consults the accelerator on
		// every broadcast snoop it cannot deduce (§2.3.2), which costs
		// hammer's streaming kernel more than 1.5x.
		exceptions := map[string]bool{"hammer/streaming xg-txn/1L": true}
		hostSide := slices.Index(config.AllOrgs, config.OrgHostSide)
		for i, org := range config.AllOrgs {
			if !org.UsesXG() {
				continue
			}
			if s.geomean[i] >= s.geomean[hostSide] {
				t.Errorf("%v geomean %.2f is not below host-side's %.2f", org, s.geomean[i], s.geomean[hostSide])
			}
			for _, r := range s.rows {
				cell := r.host.String() + "/" + r.kind.String() + " " + org.String()
				if over := r.vals[i] > 1.5; over != exceptions[cell] {
					t.Errorf("%s runs %.2fx accel-side; above 1.5x: %v, pinned exception: %v", cell, r.vals[i], over, exceptions[cell])
				}
			}
		}
	})

	t.Run("E7", func(t *testing.T) {
		var most float64
		for _, r := range get[putsTable](t, secs, "puts") {
			name := r.host.String() + "/" + r.kind.String() + " " + r.org.String()
			if r.host == config.HostHammer && r.forwarded != 0 {
				t.Errorf("%s: hammer evicts S silently, yet the guard forwarded %d PutS", name, r.forwarded)
			}
			if r.host == config.HostMESI && r.suppressed != 0 {
				t.Errorf("%s: MESI tracks sharers exactly, yet the guard suppressed %d PutS", name, r.suppressed)
			}
			if r.org.TwoLevel() && r.frac != 0 {
				t.Errorf("%s: the shared L2 should keep PutS from the guard, share %.2f%%", name, 100*r.frac)
			}
			most = max(most, r.frac)
		}
		// Deviation: the paper's 1-4% is of guard-to-host bandwidth; ours
		// is of accelerator-to-guard messages, so the read-shared kernels
		// land above the band.
		if most >= 0.10 || most <= 0.04 {
			t.Errorf("largest PutS share %.2f%%, want above the paper's 4%% and below 10%%", 100*most)
		}
	})

	t.Run("E8", func(t *testing.T) {
		for _, r := range get[storageTable](t, secs, "storage") {
			if r.kb >= 64 && 10*r.txn > r.full {
				t.Errorf("%d KiB: Transactional %d B is not 10x below Full State's %d B", r.kb, r.txn, r.full)
			}
			// Deviation: our ~6 B per tag gives 24 KiB at 256 KiB where the
			// paper, packing tighter, says "around 16 kB".
			if r.kb == 256 && r.model != 24_576 {
				t.Errorf("256 KiB: Full State model %d B, pinned at 24576 B", r.model)
			}
		}
	})

	t.Run("E9", func(t *testing.T) {
		f := get[floodTable](t, secs, "dos")
		idle, flood, limited := f[0].lat, f[1].lat, f[2].lat
		if flood < 1.10*idle {
			t.Errorf("an unlimited flood raises CPU latency only %.1f -> %.1f ticks, want at least 10%%", idle, flood)
		}
		if limited > 1.05*idle || limited < 0.95*idle {
			t.Errorf("rate-limited flood: CPU latency %.1f ticks, want within 5%% of idle %.1f", limited, idle)
		}
	})

	t.Run("E10", func(t *testing.T) {
		for _, r := range get[xlateTable](t, secs, "blockxlate") {
			if r.merges == 0 || r.splits == 0 || r.halfRecalls == 0 || r.errors != 0 {
				t.Errorf("%v: %d merges, %d splits, %d half-line recalls, %d errors; want all but errors above 0",
					r.host, r.merges, r.splits, r.halfRecalls, r.errors)
			}
		}
	})

	t.Run("E11", func(t *testing.T) {
		r := get[recovery](t, secs, "timeout")
		if r.latency < r.timeout || r.latency > r.timeout+100 {
			t.Errorf("the CPU store took %d ticks, want within [%d, %d]", r.latency, r.timeout, r.timeout+100)
		}
		if r.g2c != 1 {
			t.Errorf("%d XG.G2c errors, want 1", r.g2c)
		}
		if r.audit != nil {
			t.Errorf("host audit: %v", r.audit)
		}
	})

	t.Run("E12", func(t *testing.T) {
		f := get[filtering](t, secs, "snoop")
		if f.filtered != uint64(f.stores) || f.invs != 0 {
			t.Errorf("%d of %d snoops filtered, accelerator saw %d invalidations; want all and 0", f.filtered, f.stores, f.invs)
		}
	})

	a := get[ablation](t, secs, "ablation")
	t.Run("A1", func(t *testing.T) {
		for i := 1; i < len(a.guardLat); i++ {
			if a.guardLat[i] < a.guardLat[i-1] {
				t.Errorf("cycles fell from %d to %d as GuardLat grew to %d", a.guardLat[i-1], a.guardLat[i], guardLats[i])
			}
		}
	})
	t.Run("A2", func(t *testing.T) {
		var gap int64
		for i, c := range a.crossing {
			g := int64(c[0]) - int64(c[1])
			if g <= gap {
				t.Errorf("crossing %d: host-side %d vs XG %d cycles; XG must win by more than the %d at the shorter crossing",
					crossings[i], c[0], c[1], gap)
			}
			gap = g
		}
	})
	t.Run("A3", func(t *testing.T) {
		if without, with := a.perms[0].SnoopsForwarded, a.perms[1].SnoopsForwarded; with >= without {
			t.Errorf("permissions left %d accelerator consults, %d without", with, without)
		}
	})
	t.Run("A4", func(t *testing.T) {
		one, two := a.sharing[0], a.sharing[1]
		if two.CrossingBytes >= one.CrossingBytes || two.Cycles >= one.Cycles {
			t.Errorf("2L: %d boundary bytes in %d cycles, 1L: %d in %d; want 2L below on both",
				two.CrossingBytes, two.Cycles, one.CrossingBytes, one.Cycles)
		}
	})
}

func get[T section](t *testing.T, secs map[string]section, name string) T {
	t.Helper()
	s, ok := secs[name].(T)
	if !ok {
		t.Fatalf("experiment %q returned %T", name, secs[name])
	}
	return s
}

// firstDiff reports the first line where got and want differ.
func firstDiff(got, want string) (line int, g, w string, same bool) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			return i + 1, at(gl, i), at(wl, i), false
		}
	}
	return 0, "", "", true
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}

// goldenRows returns the whitespace-separated fields of each line of the
// golden section whose title starts with title, header included.
func goldenRows(golden, title string) [][]string {
	var rows [][]string
	for _, sec := range strings.Split(golden, "\n\n") {
		if lines := strings.Split(sec, "\n"); strings.HasPrefix(lines[0], title) {
			for _, l := range lines[1:] {
				rows = append(rows, strings.Fields(l))
			}
		}
	}
	return rows
}

// docRows returns the cells of each row of the first markdown table after
// the heading that starts with heading, header included, with bold marks
// dropped.
func docRows(doc, heading string) [][]string {
	_, after, ok := strings.Cut(doc, "\n"+heading)
	if !ok {
		return nil
	}
	var rows [][]string
	inTable := false
	for _, l := range strings.Split(after, "\n") {
		if !strings.HasPrefix(l, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		if strings.HasPrefix(l, "|---") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(l, "|"), "|") {
			cells = append(cells, strings.Trim(strings.TrimSpace(c), "*"))
		}
		rows = append(rows, cells)
	}
	return rows
}
