package hammer

import (
	"fmt"

	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
)

// Node id layout for Hammer systems.
const (
	NodeDir   coherence.NodeID = 1
	NodeCache coherence.NodeID = 10  // cache i is NodeCache + i
	NodeSeq   coherence.NodeID = 100 // sequencer i is NodeSeq + i
)

// System is a CPU-only Hammer machine: sequencers -> private caches ->
// broadcast directory -> memory.
type System struct {
	Eng    *sim.Engine
	Fab    *network.Fabric
	Mem    *mem.Memory
	Dir    *Directory
	Caches []*Cache
	Seqs   []*seq.Sequencer
	Log    *coherence.ErrorLog
}

// NewSystem wires nCPU cores with the given protocol configuration.
func NewSystem(nCPU int, cfg Config, seed int64) *System {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, seed, network.Config{Latency: 10, Jitter: 4, Ordered: true})
	memory := mem.NewMemory()
	log := coherence.NewErrorLog()
	s := &System{Eng: eng, Fab: fab, Mem: memory, Log: log}
	s.Dir = NewDirectory(NodeDir, "hammer.dir", eng, fab, memory, cfg, log)
	responses := nCPU // (nCPU-1 peers) + 1 memory response
	ops := new(seq.OpList)
	for i := 0; i < nCPU; i++ {
		c := NewCache(NodeCache+coherence.NodeID(i), fmt.Sprintf("hammer.C[%d]", i),
			fab, NodeDir, responses, cfg, log)
		s.Caches = append(s.Caches, c)
		s.Dir.AddPeer(c.ID())
		sq := seq.New(NodeSeq+coherence.NodeID(i), fmt.Sprintf("cpu[%d]", i), eng, fab, c.ID(), ops)
		s.Seqs = append(s.Seqs, sq)
		fab.SetRoutePair(sq.ID(), c.ID(), network.Config{Latency: 1, Ordered: true})
	}
	return s
}

// Engine implements tester.System.
func (s *System) Engine() *sim.Engine { return s.Eng }

// Sequencers implements tester.System.
func (s *System) Sequencers() []*seq.Sequencer { return s.Seqs }

// Outstanding implements tester.System.
func (s *System) Outstanding() int {
	n := s.Dir.Outstanding()
	for _, c := range s.Caches {
		n += c.Outstanding()
	}
	for _, sq := range s.Seqs {
		n += sq.Outstanding()
	}
	return n
}

// Audit implements tester.System: it checks chassis.Audit's rules at a
// quiesce point, with the directory as the caches' home.
func (s *System) Audit() error {
	return chassis.Audit(chassis.Scope{Caches: chassis.Claimants(s.Caches), Home: s.Dir, Values: true, Memory: s.Mem})
}

// Coverage returns merged coverage across controller classes.
func (s *System) Coverage() []*coherence.Coverage {
	ccov := cacheRules.Coverage()
	for _, c := range s.Caches {
		ccov.Merge(c.Cov)
	}
	return []*coherence.Coverage{ccov, s.Dir.Cov}
}
