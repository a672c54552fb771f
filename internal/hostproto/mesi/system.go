package mesi

import (
	"fmt"

	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
)

// Node id layout for MESI systems. The accelerator side (added by the
// config package) uses ids >= 200.
const (
	NodeL2  coherence.NodeID = 1
	NodeL1  coherence.NodeID = 10  // L1 i is NodeL1 + i
	NodeSeq coherence.NodeID = 100 // sequencer i is NodeSeq + i
)

// System is a CPU-only MESI machine: sequencers -> private L1s -> shared
// inclusive L2 -> memory.
type System struct {
	Eng  *sim.Engine
	Fab  *network.Fabric
	Mem  *mem.Memory
	L2C  *L2
	L1s  []*L1
	Seqs []*seq.Sequencer
	Log  *coherence.ErrorLog
}

// NewSystem wires nCPU cores with the given protocol configuration.
// Host-internal channels are point-to-point FIFO with jitter.
func NewSystem(nCPU int, cfg Config, seed int64) *System {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, seed, network.Config{Latency: 10, Jitter: 4, Ordered: true})
	memory := mem.NewMemory()
	log := coherence.NewErrorLog()
	s := &System{Eng: eng, Fab: fab, Mem: memory, Log: log}
	s.L2C = NewL2(NodeL2, "mesi.L2", eng, fab, memory, cfg, log)
	ops := new(seq.OpList)
	for i := 0; i < nCPU; i++ {
		l1 := NewL1(NodeL1+coherence.NodeID(i), fmt.Sprintf("mesi.L1[%d]", i), fab, NodeL2, cfg, log)
		s.L1s = append(s.L1s, l1)
		sq := seq.New(NodeSeq+coherence.NodeID(i), fmt.Sprintf("cpu[%d]", i), eng, fab, l1.ID(), ops)
		s.Seqs = append(s.Seqs, sq)
		// Core <-> L1 is a short on-chip hop.
		fab.SetRoutePair(sq.ID(), l1.ID(), network.Config{Latency: 1, Ordered: true})
	}
	return s
}

// Engine implements tester.System.
func (s *System) Engine() *sim.Engine { return s.Eng }

// Sequencers implements tester.System.
func (s *System) Sequencers() []*seq.Sequencer { return s.Seqs }

// Outstanding implements tester.System.
func (s *System) Outstanding() int {
	n := s.L2C.Outstanding()
	for _, l1 := range s.L1s {
		n += l1.Outstanding()
	}
	for _, sq := range s.Seqs {
		n += sq.Outstanding()
	}
	return n
}

// Audit implements tester.System: it checks chassis.Audit's rules at a
// quiesce point, with the inclusive L2 as the L1s' home.
func (s *System) Audit() error {
	return chassis.Audit(chassis.Scope{Caches: chassis.Claimants(s.L1s), Home: s.L2C, Values: true, Memory: s.Mem})
}

// Coverage returns merged coverage across all controllers, keyed by
// controller class.
func (s *System) Coverage() []*coherence.Coverage {
	l1cov := l1Rules.Coverage()
	for _, l1 := range s.L1s {
		l1cov.Merge(l1.Cov)
	}
	return []*coherence.Coverage{l1cov, s.L2C.Cov}
}
