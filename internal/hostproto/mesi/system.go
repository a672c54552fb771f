package mesi

import (
	"fmt"

	"crossingguard/internal/cacheset"
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
	for i := 0; i < nCPU; i++ {
		l1 := NewL1(NodeL1+coherence.NodeID(i), fmt.Sprintf("mesi.L1[%d]", i), fab, NodeL2, cfg, log)
		s.L1s = append(s.L1s, l1)
		sq := seq.New(NodeSeq+coherence.NodeID(i), fmt.Sprintf("cpu[%d]", i), eng, fab, l1.ID())
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

// Audit implements tester.System: it checks the MESI invariants at a
// quiesce point — SWMR, inclusion, directory agreement, and data-value
// agreement between clean copies, the L2, and memory.
func (s *System) Audit() error { return AuditMESI(s.L1s, s.L2C, s.Mem) }

// AuditMESI checks hierarchy invariants over any set of L1s and an L2.
func AuditMESI(l1s []*L1, l2 *L2, memory *mem.Memory) error {
	type holder struct {
		l1    *L1
		state L1State
		data  *mem.Block
		dirty bool
	}
	lines := make(map[mem.Addr][]holder)
	for _, l1 := range l1s {
		l1 := l1
		if n := l1.WBPending(); n != 0 {
			return fmt.Errorf("%s: %d writebacks still buffered at quiesce", l1.Name(), n)
		}
		l1.Lines.Visit(func(e *cacheset.Entry[l1Line]) {
			if !e.V.state.Stable() || e.V.state == L1I {
				return
			}
			lines[e.Addr] = append(lines[e.Addr], holder{l1, e.V.state, e.V.data, e.V.dirty})
		})
	}
	for addr, hs := range lines {
		present, owner, _, l2data, l2dirty := l2.AuditLine(addr)
		if !present {
			return fmt.Errorf("inclusion violated: %v held by an L1 but absent from L2", addr)
		}
		excl := 0
		shared := 0
		for _, h := range hs {
			if h.state == L1E || h.state == L1M {
				excl++
				if owner != h.l1.ID() {
					return fmt.Errorf("%v: L2 records owner %d but %s holds %v", addr, owner, h.l1.Name(), h.state)
				}
			} else {
				shared++
			}
		}
		if excl > 1 {
			return fmt.Errorf("SWMR violated at %v: %d exclusive holders", addr, excl)
		}
		if excl == 1 && shared > 0 {
			return fmt.Errorf("SWMR violated at %v: exclusive holder coexists with %d sharers", addr, shared)
		}
		for _, h := range hs {
			if h.state == L1M && h.dirty {
				continue // may legitimately differ from L2
			}
			if !mem.Equal(h.data, l2data) {
				return fmt.Errorf("data divergence at %v: %s (%v) disagrees with L2", addr, h.l1.Name(), h.state)
			}
		}
		if !l2dirty {
			if mb := memory.Peek(addr); mb != nil && !mem.Equal(l2data, mb) {
				return fmt.Errorf("clean L2 line %v disagrees with memory", addr)
			}
		}
	}
	// Every L2 line with recorded copies must be backed by real copies.
	var err error
	l2.cache.Visit(func(e *cacheset.Entry[l2Line]) {
		if err != nil || e.V.busy() {
			return
		}
		if e.V.owner != coherence.NodeNone {
			found := false
			for _, h := range lines[e.Addr] {
				if h.l1.ID() == e.V.owner && (h.state == L1E || h.state == L1M) {
					found = true
				}
			}
			if !found {
				err = fmt.Errorf("L2 records owner %d for %v but no L1 holds it exclusively", e.V.owner, e.Addr)
			}
		}
		if !e.V.dirty {
			if mb := memory.Peek(e.Addr); mb != nil && !mem.Equal(e.V.data, mb) {
				err = fmt.Errorf("clean L2 line %v disagrees with memory", e.Addr)
			}
		}
	})
	return err
}

// Coverage returns merged coverage across all controllers, keyed by
// controller class.
func (s *System) Coverage() []*coherence.Coverage {
	l1cov := NewL1Coverage()
	for _, l1 := range s.L1s {
		l1cov.Merge(l1.Cov)
	}
	return []*coherence.Coverage{l1cov, s.L2C.Cov}
}
