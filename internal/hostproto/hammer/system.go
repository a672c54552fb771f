package hammer

import (
	"fmt"

	"crossingguard/internal/cacheset"
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
	for i := 0; i < nCPU; i++ {
		c := NewCache(NodeCache+coherence.NodeID(i), fmt.Sprintf("hammer.C[%d]", i),
			fab, NodeDir, responses, cfg, log)
		s.Caches = append(s.Caches, c)
		s.Dir.AddPeer(c.ID())
		sq := seq.New(NodeSeq+coherence.NodeID(i), fmt.Sprintf("cpu[%d]", i), eng, fab, c.ID())
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

// Audit implements tester.System, checking MOESI invariants at quiesce.
func (s *System) Audit() error { return AuditHammer(s.Caches, s.Dir) }

// AuditHammer checks the MOESI single-owner and data-agreement invariants
// over any set of Hammer caches and their directory.
func AuditHammer(caches []*Cache, dir *Directory) error {
	type holder struct {
		c     *Cache
		state CState
		data  *mem.Block
		dirty bool
	}
	lines := make(map[mem.Addr][]holder)
	for _, c := range caches {
		c := c
		if n := c.WBPending(); n != 0 {
			return fmt.Errorf("%s: %d writebacks still buffered at quiesce", c.Name(), n)
		}
		c.Lines.Visit(func(e *cacheset.Entry[cLine]) {
			if !e.V.state.Stable() || e.V.state == CI {
				return
			}
			lines[e.Addr] = append(lines[e.Addr], holder{c, e.V.state, e.V.data, e.V.dirty})
		})
	}
	for addr, hs := range lines {
		var owner *holder
		exclusive := 0
		sharers := 0
		for i := range hs {
			switch hs[i].state {
			case CM, CE:
				exclusive++
				owner = &hs[i]
			case CO:
				if owner != nil {
					return fmt.Errorf("SWMR violated at %v: multiple owners", addr)
				}
				owner = &hs[i]
			case CS:
				sharers++
			}
		}
		if exclusive > 1 {
			return fmt.Errorf("SWMR violated at %v: %d M/E holders", addr, exclusive)
		}
		if exclusive == 1 && sharers > 0 {
			return fmt.Errorf("SWMR violated at %v: M/E coexists with %d sharers", addr, sharers)
		}
		// Directory owner agreement.
		dOwner := dir.Owner(addr)
		if owner != nil && dOwner != owner.c.ID() {
			return fmt.Errorf("%v: cache %s owns (%v) but directory records %d",
				addr, owner.c.Name(), owner.state, dOwner)
		}
		if owner == nil && dOwner != coherence.NodeNone {
			return fmt.Errorf("%v: directory records owner %d but nobody owns", addr, dOwner)
		}
		// Data agreement: sharers match the owner (or memory).
		ref := dir.Memory().Peek(addr)
		if owner != nil {
			ref = owner.data
		}
		for _, h := range hs {
			if h.state == CS && !mem.Equal(h.data, ref) {
				return fmt.Errorf("data divergence at %v: sharer %s disagrees with %s",
					addr, h.c.Name(), map[bool]string{true: "owner", false: "memory"}[owner != nil])
			}
		}
		// A clean owner (E, or O-from-E) must match memory.
		if owner != nil && !owner.dirty {
			if mb := dir.Memory().Peek(addr); mb != nil && !mem.Equal(owner.data, mb) {
				return fmt.Errorf("clean owner of %v disagrees with memory", addr)
			}
		}
	}
	return nil
}

// Coverage returns merged coverage across controller classes.
func (s *System) Coverage() []*coherence.Coverage {
	ccov := NewCacheCoverage()
	for _, c := range s.Caches {
		ccov.Merge(c.Cov)
	}
	return []*coherence.Coverage{ccov, s.Dir.Cov}
}
