// Package workload provides the synthetic accelerator kernels used for
// the performance evaluation. The paper ran Rodinia benchmarks on a
// gem5-gpu GPGPU; we cannot ship those, so each kernel reproduces one of
// the access patterns the paper's introduction motivates (§1): streaming
// (video decode), stencil (hotspot-like), data-dependent graph traversal
// (bfs-like), reduction (kmeans-like), and blocked/tiled reuse
// (lud-like). CPU cores run a light background mix with a small region
// shared with the accelerator, so invalidations cross the boundary in
// both directions.
package workload

import (
	"fmt"

	"crossingguard/internal/config"
	"crossingguard/internal/mem"
	"crossingguard/internal/perm"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
	"crossingguard/internal/stats"
)

// Kind selects the accelerator access pattern.
type Kind int

const (
	// Streaming reads sequentially and writes an output stream — the
	// block-based video decoder of the paper's intro.
	Streaming Kind = iota
	// Stencil sweeps a 2D grid reading neighbors and writing the cell.
	Stencil
	// Graph chases data-dependent pointers ("a graph processing
	// accelerator may make many data-dependent accesses").
	Graph
	// Reduction reads a large region and accumulates into a small one.
	Reduction
	// Blocked works on cache-sized tiles with heavy reuse.
	Blocked
	// CrossShare is the cross-accelerator sharing kernel: every device
	// streams the same input and updates the same output lines, so
	// grants migrate between guards as devices take turns owning them.
	// Meaningful on multi-accelerator machines (Spec.Accels > 1); on a
	// single device it degenerates to Streaming with a hot output.
	CrossShare
	// FalseShare is the inter-accelerator false-sharing kernel: device d
	// touches only byte d of every line in a small hot region — no datum
	// is logically shared, yet every store forces a cross-guard
	// ownership migration of the whole line.
	FalseShare
)

var kindNames = [...]string{"streaming", "stencil", "graph", "reduction", "blocked",
	"cross-share", "false-share"}

// String returns the kernel name used in flags and reports.
func (k Kind) String() string { return kindNames[k] }

// AllKinds lists the single-device benchmark kernels (the sweep the
// performance evaluation has always run).
var AllKinds = []Kind{Streaming, Stencil, Graph, Reduction, Blocked}

// MultiKinds lists the kernels designed for multi-accelerator machines.
var MultiKinds = []Kind{CrossShare, FalseShare}

// Config parameterizes one run.
type Config struct {
	Kind Kind
	// AccessesPerCore is the accelerator work per core.
	AccessesPerCore int
	// Footprint is the accelerator data region in bytes.
	Footprint int
	// SharedBytes is the CPU/accelerator shared region (interference).
	SharedBytes int
	// Deadline bounds the run.
	Deadline sim.Time
}

// DefaultConfig returns the benchmark parameters.
func DefaultConfig(kind Kind) Config {
	return Config{
		Kind:            kind,
		AccessesPerCore: 2000,
		Footprint:       1 << 15, // 32 KiB: exceeds the small accel L1s
		SharedBytes:     1 << 10,
		Deadline:        80_000_000,
	}
}

// Regions (page-aligned so permission tables can cover them).
const (
	accelBase  = mem.Addr(0x100000)
	sharedBase = mem.Addr(0x200000)
	cpuBase    = mem.Addr(0x300000)
)

// Perms returns a Border-Control permission table covering the workload
// regions: the accelerator may read and write its own and the shared
// region, and nothing else. Installing it lets Transactional guards
// filter snoops for CPU-private lines (§3.2) exactly as the paper's
// deployment would.
func Perms(cfg Config) *perm.Table {
	t := perm.NewTable()
	t.GrantRange(accelBase, uint64(2*cfg.Footprint+8192), perm.ReadWrite)
	t.GrantRange(sharedBase, uint64(cfg.SharedBytes)+mem.PageBytes, perm.ReadWrite)
	return t
}

// Result reports the measurements the evaluation plots.
type Result struct {
	Config Config
	Spec   config.Spec
	// Cycles is the makespan: the time the last accelerator core
	// finished its kernel.
	Cycles sim.Time
	// AccelAccesses / CPUAccesses completed.
	AccelAccesses, CPUAccesses uint64
	// AccelAvgLat / CPUAvgLat are mean per-access latencies in ticks;
	// AccelLat carries the full distribution for histograms/quantiles,
	// one observation per accelerator access, added as it completes.
	AccelAvgLat, CPUAvgLat float64
	AccelLat               stats.Counts
	// CrossingBytes is accel<->host boundary traffic; GuardHostBytes the
	// guard-to-host share; PutSFrac the PutS share of accelerator-to-
	// guard traffic (paper §2.1 reports 1-4%).
	CrossingBytes   uint64
	PutSFrac        float64
	SnoopsFiltered  uint64
	SnoopsForwarded uint64
	StorageBytes    int
	Errors          int
}

// kernel produces the accelerator's address sequence; the next address
// may depend on the previously loaded value (Graph).
type kernel struct {
	cfg   Config
	core  int
	dev   int // accelerator device index (cross-device kernels)
	i     int
	state uint64
}

// next returns the i-th access: address, store?, value.
func (k *kernel) next(lastLoaded byte) (addr mem.Addr, store bool, val byte) {
	f := mem.Addr(k.cfg.Footprint)
	i := k.i
	k.i++
	// A fraction of accesses touch the CPU-shared region, generating
	// cross-boundary coherence in both directions.
	if i%61 == 60 {
		off := mem.Addr((i * 13) % k.cfg.SharedBytes)
		return sharedBase + off, i%122 == 60, byte(i)
	}
	switch k.cfg.Kind {
	case Streaming:
		// All cores stream the same input (a decoder reading shared
		// frames); every 4th access writes a per-core output stream.
		if i%4 == 3 {
			out := mem.Addr((k.core*k.cfg.Footprint/4 + i*4) % k.cfg.Footprint)
			return accelBase + f + out, true, byte(i)
		}
		return accelBase + mem.Addr(i*4%k.cfg.Footprint), false, 0
	case Stencil:
		// Each core sweeps its own band of rows (hotspot-like), reading
		// the north neighbor and the cell, then writing the cell.
		quarter := mem.Addr(k.cfg.Footprint / 4)
		base := accelBase + mem.Addr(k.core%4)*quarter
		el := mem.Addr((i/3)*4) % quarter
		center := base + el
		switch i % 3 {
		case 0: // north neighbor: one row (line) back
			if el >= mem.BlockBytes {
				return center - mem.BlockBytes, false, 0
			}
			return center, false, 0
		case 1:
			return center, false, 0
		default:
			return center, true, byte(i)
		}
	case Graph:
		// Data-dependent chase: the loaded byte perturbs the next edge.
		k.state = k.state*6364136223846793005 + 1442695040888963407 + uint64(lastLoaded)
		off := mem.Addr(k.state) % f
		return accelBase + off.Line(), i%17 == 16, byte(i)
	case Reduction:
		// Stream the input; accumulate into a per-core partial line.
		if i%8 == 7 {
			return accelBase + f + mem.Addr(k.core*mem.BlockBytes), true, byte(i)
		}
		return accelBase + mem.Addr((i*mem.BlockBytes+k.core*509)%k.cfg.Footprint), false, 0
	case CrossShare:
		// Every device reads the same input stream and every 4th access
		// writes the same small output window, so output lines bounce
		// between guards (host-mediated recall on every migration).
		if i%4 == 3 {
			out := mem.Addr((i * 4) % (k.cfg.Footprint / 8))
			return accelBase + f + out, true, byte(i)
		}
		return accelBase + mem.Addr(i*4%k.cfg.Footprint), false, 0
	case FalseShare:
		// Disjoint bytes of the same hot lines: device d touches only
		// byte d, but ownership is per line, so stores from different
		// devices fight over every line without sharing any datum.
		const hotLines = 8
		line := mem.Addr((i % hotLines) * mem.BlockBytes)
		addr := accelBase + line + mem.Addr(k.dev%mem.BlockBytes)
		return addr, i%2 == 1, byte(i)
	default: // Blocked
		// 4 KiB tiles with heavy reuse before moving on (lud-like); each
		// core owns a quarter of the footprint (per-core tile sets).
		quarter := k.cfg.Footprint / 4
		ntiles := quarter / 4096
		if ntiles == 0 {
			ntiles = 1
		}
		tile := (i / 1024) % ntiles
		off := mem.Addr((k.core%4)*quarter + tile*4096 + (i*67)%quarter%4096)
		return accelBase + off, i%5 == 4, byte(i)
	}
}

// Run drives sys with the workload and collects measurements. The system
// must have been built by config.Build (any of the 12 organizations).
func Run(sys *config.System, cfg Config) (Result, error) {
	res := Result{Config: cfg, Spec: sys.Spec}
	if cfg.AccessesPerCore <= 0 || cfg.Footprint <= 0 || len(sys.AccelSeqs) == 0 {
		return res, fmt.Errorf("workload: bad config or system")
	}
	eng := sys.Eng

	// Seed the graph jump table so data-dependent loads see real values.
	for a := accelBase; a < accelBase+mem.Addr(cfg.Footprint); a += mem.BlockBytes {
		var b mem.Block
		for j := range b {
			b[j] = byte(uint64(a)*31 + uint64(j)*17)
		}
		sys.Mem.Write(a, &b)
	}

	accelDone := 0
	var finish sim.Time
	for ci, sq := range sys.AccelSeqs {
		sq := sq
		k := &kernel{cfg: cfg, core: ci, dev: sys.AccelSeqDevice(ci), state: uint64(ci)*977 + 1}
		// The completion callbacks are bound once per core, not once per
		// access: the sequencer hands each the finished Op.
		var stored, loaded func(*seq.Op)
		step := func(last byte) {
			if k.i >= cfg.AccessesPerCore {
				accelDone++
				if accelDone == len(sys.AccelSeqs) {
					finish = eng.Now()
				}
				return
			}
			addr, store, val := k.next(last)
			if store {
				sq.Store(addr, val, stored)
			} else {
				sq.Load(addr, loaded)
			}
		}
		stored = func(op *seq.Op) {
			res.AccelLat.Add(float64(op.Done - op.Issued))
			step(0)
		}
		loaded = func(op *seq.Op) {
			res.AccelLat.Add(float64(op.Done - op.Issued))
			step(op.Result)
		}
		eng.Schedule(sim.Time(ci), func() { step(0) })
	}

	// CPU background: a loop of loads/stores over a private region plus
	// occasional shared-region writes, until the accelerator finishes.
	for ci, sq := range sys.CPUSeqs {
		ci, sq := ci, sq
		i := 0
		var done func(*seq.Op)
		step := func() {
			if accelDone == len(sys.AccelSeqs) {
				return
			}
			i++
			var addr mem.Addr
			store := i%3 == 0
			if i%23 == 22 {
				addr = sharedBase + mem.Addr((i*7)%cfg.SharedBytes)
			} else {
				addr = cpuBase + mem.Addr(ci<<14) + mem.Addr((i*mem.BlockBytes/2)%(1<<13))
			}
			if store {
				sq.Store(addr, byte(i), done)
			} else {
				sq.Load(addr, done)
			}
		}
		done = func(*seq.Op) { eng.Schedule(8, step) } // think time
		eng.Schedule(sim.Time(ci)+2, step)
	}

	if !eng.RunUntil(cfg.Deadline) && accelDone < len(sys.AccelSeqs) {
		return res, fmt.Errorf("workload: deadline %d exceeded (%d/%d accel cores done)",
			cfg.Deadline, accelDone, len(sys.AccelSeqs))
	}
	if accelDone < len(sys.AccelSeqs) {
		return res, fmt.Errorf("workload: wedged with %d/%d accel cores done", accelDone, len(sys.AccelSeqs))
	}
	res.Cycles = finish
	for _, sq := range sys.AccelSeqs {
		res.AccelAccesses += sq.Completed
		res.AccelAvgLat += sq.AvgLatency()
	}
	res.AccelAvgLat /= float64(len(sys.AccelSeqs))
	for _, sq := range sys.CPUSeqs {
		res.CPUAccesses += sq.Completed
		res.CPUAvgLat += sq.AvgLatency()
	}
	if len(sys.CPUSeqs) > 0 {
		res.CPUAvgLat /= float64(len(sys.CPUSeqs))
	}
	res.CrossingBytes = CrossingBytes(sys)
	res.PutSFrac = PutSFraction(sys)
	for _, g := range sys.Guards {
		res.SnoopsFiltered += g.SnoopsFiltered
		res.SnoopsForwarded += g.SnoopsForwarded
		if sb := g.StorageBytes(); sb > res.StorageBytes {
			res.StorageBytes = sb
		}
	}
	res.Errors = sys.Log.Count()
	return res, nil
}
