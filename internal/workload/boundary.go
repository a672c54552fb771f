package workload

import (
	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
)

// CrossingBytes sums traffic, both ways, over every node pair the machine
// routes across the host<->accelerator boundary.
func CrossingBytes(sys *config.System) uint64 {
	var n uint64
	for _, p := range sys.Crossings() {
		n += sys.Fab.StatsFor(p[0], p[1]).Bytes + sys.Fab.StatsFor(p[1], p[0]).Bytes
	}
	return n
}

// PutSFraction reports the PutS share of accelerator-to-guard traffic
// (paper §2.1: "unnecessary PutS messages comprised about 1-4% of
// Crossing-Guard-to-host bandwidth"). Zero for non-guard organizations.
func PutSFraction(sys *config.System) float64 {
	var putS, total uint64
	for _, g := range sys.Guards {
		s := sys.Fab.StatsFor(g.AccelID(), g.ID())
		putS += s.BytesByType[coherence.APutS]
		total += s.Bytes
	}
	if total == 0 {
		return 0
	}
	return float64(putS) / float64(total)
}
