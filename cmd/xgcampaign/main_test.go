package main

import (
	"os"
	"strings"
	"testing"

	"crossingguard/internal/campaign"
)

// The coverage blocks EXPERIMENTS.md prints for E3 and E4 are the summary
// lines of the commands it names, run here with the default flags:
// -mode stress -seeds 5 -stores 100 and -mode fuzz -seeds 5 -messages 3000.
func TestExperimentsCoverageBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the E3 and E4 campaigns")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ section, mode string }{{"## E3", "stress"}, {"## E4", "fuzz"}} {
		rep := campaign.Run(campaign.Seeded(sweep(c.mode), 5), campaign.Options{Workers: 2})
		block := coverageBlock(string(doc), c.section)
		if got, want := trimLines(block), trimLines(rep.CoverageTable()); got != want {
			t.Errorf("EXPERIMENTS.md's %s coverage block reads\n%s\nbut -mode %s prints\n%s", c.section, got, c.mode, want)
		}
	}
}

// trimLines is s with each line's surrounding space trimmed.
func trimLines(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	for i := range lines {
		lines[i] = strings.TrimSpace(lines[i])
	}
	return strings.Join(lines, "\n")
}

// coverageBlock returns the fenced block of section that lists coverage
// summary lines.
func coverageBlock(doc, section string) string {
	_, doc, _ = strings.Cut(doc, "\n"+section)
	doc, _, _ = strings.Cut(doc, "\n## ")
	for blocks := strings.Split(doc, "```"); len(blocks) > 1; blocks = blocks[2:] {
		if strings.Contains(blocks[1], " pairs (") {
			return blocks[1]
		}
	}
	return ""
}
