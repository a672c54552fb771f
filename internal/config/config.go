// Package config composes complete simulated machines for the twelve
// cache organizations evaluated in the paper (§3, Figure 2): for each
// host protocol (Hammer-like MOESI, inclusive MESI), an unsafe
// accelerator-side cache (2a), a safe host-side cache (2b), and four
// Crossing Guard organizations (2c/2d: {Full State, Transactional} x
// {single-level, two-level accelerator hierarchy}).
package config

import (
	"fmt"

	"crossingguard/internal/accel"
	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/consistency"
	"crossingguard/internal/core"
	"crossingguard/internal/faults"
	"crossingguard/internal/hostproto/hammer"
	"crossingguard/internal/hostproto/mesi"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/perm"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
)

// HostKind selects the host coherence protocol.
type HostKind int

const (
	HostHammer HostKind = iota // AMD-Hammer-style broadcast protocol
	HostMESI                   // directory MESI with an inclusive L2
)

// String returns the host name used in spec strings and shard names.
func (h HostKind) String() string {
	if h == HostHammer {
		return "hammer"
	}
	return "mesi"
}

// Org is the accelerator cache organization (paper Figure 2).
type Org int

const (
	// OrgAccelSide: the accelerator implements a host-protocol cache
	// directly — fast but unsafe (Fig. 2a).
	OrgAccelSide Org = iota
	// OrgHostSide: no accelerator cache; every access crosses to a
	// host-side cache — safe but slow (Fig. 2b).
	OrgHostSide
	// OrgXGFull1L / OrgXGTxn1L: Crossing Guard (Full State /
	// Transactional) with a per-core single-level accelerator L1
	// (Fig. 2c).
	OrgXGFull1L
	// OrgXGTxn1L is the Transactional-guard variant of OrgXGFull1L.
	OrgXGTxn1L
	// OrgXGFull2L / OrgXGTxn2L: Crossing Guard with private L1s behind a
	// shared accelerator L2 (Fig. 2d).
	OrgXGFull2L
	// OrgXGTxn2L is the Transactional-guard variant of OrgXGFull2L.
	OrgXGTxn2L
	// OrgXGWeak: the weakly-coherent accelerator hierarchy of §2.1 —
	// incoherent private L1s with explicit flush, behind a fully
	// host-coherent shared L2 and a Full State guard. Not part of the
	// paper's 12-configuration sweep; provided as the paper's claimed
	// extension ("Crossing Guard places no restrictions on coherence
	// behavior within the accelerator protocol").
	OrgXGWeak
)

var orgNames = [...]string{"accel-side", "host-side", "xg-full/1L", "xg-txn/1L", "xg-full/2L", "xg-txn/2L", "xg-weak"}

// String returns the organization name used in spec strings and reports.
func (o Org) String() string { return orgNames[o] }

// UsesXG reports whether the organization includes Crossing Guard.
func (o Org) UsesXG() bool { return o >= OrgXGFull1L }

// TwoLevel reports whether the accelerator has a shared L2.
func (o Org) TwoLevel() bool { return o == OrgXGFull2L || o == OrgXGTxn2L || o == OrgXGWeak }

// Mode returns the guard variant for XG organizations.
func (o Org) Mode() core.Mode {
	if o == OrgXGTxn1L || o == OrgXGTxn2L {
		return core.Transactional
	}
	return core.FullState
}

// AllOrgs lists the six organizations per host.
var AllOrgs = []Org{OrgAccelSide, OrgHostSide, OrgXGFull1L, OrgXGTxn1L, OrgXGFull2L, OrgXGTxn2L}

// Node id layout. Accelerator device d's components live at the base id
// plus d*DeviceStride, so device 0 keeps the historical single-device
// ids exactly and every device's node ids encode which device they
// belong to (DeviceOf recovers the index).
const (
	nodeHost    coherence.NodeID = 1   // hammer directory / mesi L2
	nodeCPU     coherence.NodeID = 10  // CPU cache i
	nodeXG      coherence.NodeID = 40  // guard i (one per accel core for 1L)
	nodeAccelL2 coherence.NodeID = 60  // shared accelerator L2
	nodeCPUSeq  coherence.NodeID = 100 // CPU sequencer i
	nodeAccel   coherence.NodeID = 200 // accelerator cache i
	nodeAccSeq  coherence.NodeID = 300 // accelerator sequencer i
)

// Machine-size limits, set by the node-id ranges above: CPU caches fill
// [nodeCPU, nodeXG), and the single-level organizations' one guard per
// accelerator core fills [nodeXG, nodeAccelL2).
const (
	MaxCPUs       = int(nodeXG - nodeCPU)
	MaxAccelCores = int(nodeAccelL2 - nodeXG)
)

// MaxAccels bounds the accelerator devices on one machine. The id layout
// has room for any count (DeviceStride apart); the bound is on what a run
// asks to build, four times the largest count AccelCounts sweeps.
const MaxAccels = 64

// CheckSize reports whether a machine with this many CPU cores, accelerator
// cores per device and devices fits the limits above. Parsers and CLIs call
// it on outside input; Build panics on a spec that fails it.
func CheckSize(cpus, accelCores, accels int) error {
	if cpus > MaxCPUs {
		return fmt.Errorf("%d CPU cores exceeds the limit of %d", cpus, MaxCPUs)
	}
	if accelCores > MaxAccelCores {
		return fmt.Errorf("%d accelerator cores exceeds the limit of %d", accelCores, MaxAccelCores)
	}
	if accels > MaxAccels {
		return fmt.Errorf("%d accelerator devices exceeds the limit of %d", accels, MaxAccels)
	}
	return nil
}

// DeviceStride separates the node-id ranges of accelerator devices:
// device d's guard, caches, and sequencers use the device-0 base ids
// plus d*DeviceStride.
const DeviceStride coherence.NodeID = 1000

// DeviceOf recovers the accelerator device index an accelerator-side
// node id belongs to (0 for device 0's historical id range).
func DeviceOf(id coherence.NodeID) int { return int(id / DeviceStride) }

// TrackOf maps a node id onto a timeline-display track (the Perfetto
// exporter's layout hook): 0 for host-side components (directory/L2, CPU
// caches and sequencers), d+1 for components of accelerator device d
// (its guard(s), caches, and sequencers). Only device 0's id range can
// hold host components, so ids past DeviceStride are always device-side.
func TrackOf(id coherence.NodeID) int {
	if base := id % DeviceStride; id < DeviceStride &&
		(base == nodeHost || (base >= nodeCPU && base < nodeXG) ||
			(base >= nodeCPUSeq && base < nodeAccel)) {
		return 0
	}
	return DeviceOf(id) + 1
}

// devID places a base+index node id into device d's id range.
func devID(d int, base coherence.NodeID, i int) coherence.NodeID {
	return base + DeviceStride*coherence.NodeID(d) + coherence.NodeID(i)
}

// devName prefixes component names with the device index for devices
// past the first, leaving device 0's historical names untouched (golden
// traces and single-accelerator reports depend on them).
func devName(d int, name string) string {
	if d == 0 {
		return name
	}
	return fmt.Sprintf("d%d.%s", d, name)
}

// Latencies models the interconnect distances (DESIGN.md §7).
type Latencies struct {
	CoreToCache sim.Time // sequencer <-> private cache
	HostHop     sim.Time // on-host hop (cache <-> directory/L2)
	Crossing    sim.Time // host <-> accelerator crossing
	AccelHop    sim.Time // accelerator-internal hop (L1 <-> accel L2)
	GuardLat    sim.Time // guard processing per crossing message
	Jitter      sim.Time
}

// DefaultLatencies returns the benchmark latency set.
func DefaultLatencies() Latencies {
	return Latencies{CoreToCache: 1, HostHop: 10, Crossing: 80, AccelHop: 6, GuardLat: 4, Jitter: 4}
}

// Spec describes one machine to build.
type Spec struct {
	Host       HostKind
	Org        Org
	CPUs       int
	AccelCores int
	// Accels is the number of accelerator devices attached to the host
	// (0 and 1 both mean one device, the historical machine). Each device
	// gets its own complete accelerator hierarchy — and, for XG
	// organizations, its own guard(s) — in the node-id range
	// base+device*DeviceStride; devices share the host protocol and
	// therefore see each other only through it.
	Accels int
	Seed   int64
	// Spans enables the guards' causal span tracing (span-begin/-phase/
	// -end trace events plus per-phase latency histograms). Default-off:
	// pure observability, and span-free traces stay byte-identical.
	Spans bool
	// Small shrinks every cache for stress testing.
	Small bool
	// Perms, when set, is installed as the guard's permission table.
	Perms *perm.Table
	// Timeout is the guard's Guarantee 2c deadline (default 100000).
	Timeout sim.Time
	// Rate optionally rate-limits accelerator requests.
	Rate *core.RateLimit
	// DisableAfter sets the guard's error policy.
	DisableAfter int
	// RecallRetries sets the guard's Invalidate retry budget (0 = the
	// paper's single-shot 2c watchdog).
	RecallRetries int
	// QuarantineAfter sets the guard's quarantine threshold (0 = never
	// fence the accelerator).
	QuarantineAfter int
	// RecoverAfter, when nonzero, arms quarantine recovery: a quarantined
	// guard waits this many ticks (doubled for every earlier readmission),
	// then drains the device, resets its cache hierarchy, and readmits it
	// under a bumped guard epoch, at most three times. 0 (the default)
	// keeps quarantine terminal, reproducing the pre-recovery machine
	// exactly.
	RecoverAfter sim.Time
	// Faults, when set and active, installs a deterministic fault
	// injector on the fabric watching every guard<->accelerator channel
	// (chaos testing). Non-XG organizations ignore it.
	Faults *faults.Plan
	// Lat overrides the latency model (zero value = defaults).
	Lat *Latencies
	// AccelL1KB overrides the accelerator L1 capacity (0 = default
	// 16 KiB); used by the storage experiment (E8).
	AccelL1KB int
	// ExtraHammerPeers enlarges the hammer broadcast set for caches
	// attached after Build (the multi-device builder).
	ExtraHammerPeers int
	// ForceTxnMods enables the §3.2 host modifications regardless of
	// organization (needed when a Transactional guard is attached after
	// Build, as in the multi-device builder).
	ForceTxnMods bool
	// Consistency, when set, attaches one observation stream per
	// sequencer (CPU cores first, then accelerator cores, matching
	// Sequencers() order): every completed load and store is recorded
	// for the offline invariant checker. Nil (the default) keeps the
	// sequencer completion path record-free.
	Consistency *consistency.Recorder
	// Obs, when set, is used as the machine's metrics registry instead
	// of a fresh one — callers running several machines sequentially
	// (cmd/xgsim's sweep) can accumulate into a single registry. Build
	// always leaves the registry in use on System.Obs.
	Obs *obs.Registry
	// CustomAccel, when set on an XG organization, replaces the
	// accelerator cache hierarchy: it is invoked once per guard with the
	// accelerator-side node id and the guard id, must register a
	// controller under that id, and returns an outstanding-count
	// function (may be nil). With several devices it runs once per guard
	// per device; DeviceOf(accelID) recovers which device is being
	// built. The fuzz harness uses this to attach pathological
	// accelerators (paper §4.2).
	CustomAccel func(s *System, accelID, xgID coherence.NodeID) func() int
}

// Name renders the configuration id used in reports; multi-device specs
// carry an /aN suffix so their report rows never collide with
// single-device rows.
func (s Spec) Name() string {
	if s.Accels > 1 {
		return fmt.Sprintf("%v/%v/a%d", s.Host, s.Org, s.Accels)
	}
	return fmt.Sprintf("%v/%v", s.Host, s.Org)
}

// System is a composed machine.
type System struct {
	Spec Spec
	Eng  *sim.Engine
	Fab  *network.Fabric
	Mem  *mem.Memory
	Log  *coherence.ErrorLog
	// Obs is the machine's metrics registry: every component's
	// instruments (guard guarantee outcomes, host-protocol state
	// transitions, network occupancy) register here at Build time.
	Obs *obs.Registry

	CPUSeqs   []*seq.Sequencer
	AccelSeqs []*seq.Sequencer
	Guards    []*core.Guard

	// Consistency is the observation recorder installed by
	// Spec.Consistency (nil when the machine runs unrecorded).
	Consistency *consistency.Recorder

	// Faults is the fault injector installed by Spec.Faults (nil when the
	// machine runs clean); callers read its per-kind injection counts.
	Faults *faults.Injector

	// Host protocol handles (one set is nil).
	HDir    *hammer.Directory
	HCaches []*hammer.Cache
	ML2     *mesi.L2
	ML1s    []*mesi.L1

	// Accelerator handles (by organization). The per-device slices are
	// flat across devices in build order; AccelL2 aliases AccelL2s[0]
	// for single-device callers.
	AccelL1s     []*accel.L1Cache // 1L XG organizations
	InnerL1s     []*accel.InnerL1 // 2L XG organizations
	AccelL2      *accel.SharedL2
	AccelL2s     []*accel.SharedL2 // one per two-level device
	WeakL1s      []*accel.WeakL1   // weak hierarchy (OrgXGWeak)
	WeakL2C      *accel.WeakL2
	AccelHCaches []*hammer.Cache // accel-side / host-side with hammer
	AccelMCaches []*mesi.L1      // accel-side / host-side with MESI

	// caches lists every cache Build wired, whatever its protocol, with its
	// place in the machine; home is the host protocol's home node. The
	// audits, the coverage merge and the outstanding counts walk these and
	// never the typed handles above.
	caches []placedCache
	home   homeView

	// outstandingFns counts what is neither: guards and custom accelerators.
	outstandingFns []func() int
	// guardAccelView maps each guard (by index in Guards) to a snapshot
	// of its accelerator's resident lines (level 0=S,1=E,2=M), used by
	// the audit to check Full State table exactness.
	guardAccelView []func() map[mem.Addr]int
	// accelSeqDevs holds, parallel to AccelSeqs, the device index each
	// accelerator sequencer belongs to (consistency streams tag records
	// with device+1 so the offline checker can attribute observations).
	accelSeqDevs []int
	// innerGroups pairs each two-level device's shared L2 with its own
	// inner L1s, so the inner-hierarchy audit never mixes devices.
	innerGroups []innerGroup
	// deviceResets maps accelerator-side node ids to the reset functions
	// registered by OnDeviceReset (custom accelerators joining the
	// quarantine-recovery protocol).
	deviceResets map[coherence.NodeID][]func(epoch uint32)
}

// cacheView is what the machine asks of a cache it built, whatever its
// protocol. A private cache answers all but Held through its chassis.
type cacheView interface {
	ID() coherence.NodeID
	Name() string
	Outstanding() int
	WBPending() int
	Coverage() *coherence.Coverage // nil when the cache declares no table
	Held(fn chassis.HeldFunc)
}

// homeView is the host protocol's home node: hammer's directory, or MESI's
// shared L2.
type homeView interface {
	Outstanding() int
	Coverage() *coherence.Coverage
	VisitOwned(fn func(addr mem.Addr, owner coherence.NodeID))
	Blocks() int // pooled blocks its own lines hold
}

// place says where a cache sits, in order of distance from the host: each
// audit reads a prefix of the order.
type place int

const (
	// cpuCache is a CPU core's cache: part of the host the paper protects.
	cpuCache place = iota
	// hostProtoCache is an accelerator's cache that speaks the host
	// protocol itself (Fig. 2a/2b).
	hostProtoCache
	// guardedCache is the accelerator cache a guard fronts; its lines are
	// the device's claims toward the host.
	guardedCache
	// innerCache is a private L1 behind an accelerator L2, where its claims
	// stop.
	innerCache
)

// placedCache is one registered cache.
type placedCache struct {
	cacheView
	place place
}

// register enters a cache Build wired into the machine's list; a cache of
// the host protocol also counts its transitions per state in the metrics
// registry.
func (s *System) register(c cacheView, p place) {
	s.caches = append(s.caches, placedCache{c, p})
	if p <= hostProtoCache {
		s.countStates(c.Coverage())
	}
}

// setHome enters the host protocol's home node, like register.
func (s *System) setHome(h homeView) {
	s.home = h
	s.countStates(h.Coverage())
}

func (s *System) countStates(cov *coherence.Coverage) {
	cov.OnRecord = obs.StateRecorder(s.Obs, cov.Name(), cov.States())
}

// Coverages returns the coverage of every controller that declares a
// transition table: the home node's, then the caches' in build order.
func (s *System) Coverages() []*coherence.Coverage {
	covs := []*coherence.Coverage{s.home.Coverage()}
	for _, c := range s.caches {
		if cov := c.Coverage(); cov != nil {
			covs = append(covs, cov)
		}
	}
	return covs
}

// OnDeviceReset registers fn to run when the guard fronting accelID
// resets its device during quarantine recovery (the guard epoch the
// device reintegrates under is passed in). Custom accelerator builders
// (Spec.CustomAccel) call this so their models rejoin under the new
// epoch — an unregistered model keeps stamping its old epoch after a
// reset and every message it sends is dropped as stale.
func (s *System) OnDeviceReset(accelID coherence.NodeID, fn func(epoch uint32)) {
	if s.deviceResets == nil {
		s.deviceResets = map[coherence.NodeID][]func(epoch uint32){}
	}
	s.deviceResets[accelID] = append(s.deviceResets[accelID], fn)
}

// deviceResetHook returns the guard reset hook for a custom accelerator:
// it fans the epoch out to every function registered under accelID (the
// map is consulted at fire time, so registration order is free).
func (s *System) deviceResetHook(accelID coherence.NodeID) func(epoch uint32) {
	return func(epoch uint32) {
		for _, fn := range s.deviceResets[accelID] {
			fn(epoch)
		}
	}
}

// innerGroup is one two-level device's shared L2 plus its inner L1s.
type innerGroup struct {
	l2  *accel.SharedL2
	l1s []*accel.InnerL1
}

// AccelSeqDevice returns the device index AccelSeqs[i] belongs to
// (0 for the first accelerator; matches the d in "d<d>." names).
func (s *System) AccelSeqDevice(i int) int {
	if i < 0 || i >= len(s.accelSeqDevs) {
		return 0
	}
	return s.accelSeqDevs[i]
}

// Build wires the machine described by spec.
func Build(spec Spec) *System {
	if spec.CPUs <= 0 {
		spec.CPUs = 2
	}
	if spec.AccelCores <= 0 {
		spec.AccelCores = 2
	}
	if spec.Accels <= 0 {
		spec.Accels = 1
	}
	if spec.Org == OrgXGWeak {
		// The weak hierarchy keeps its single-device wiring; replicating
		// incoherent-L1 flush semantics across devices is out of scope.
		spec.Accels = 1
	}
	if spec.Timeout == 0 {
		spec.Timeout = 100_000
	}
	if err := CheckSize(spec.CPUs, spec.AccelCores, spec.Accels); err != nil {
		panic("config: " + err.Error())
	}
	lat := DefaultLatencies()
	if spec.Lat != nil {
		lat = *spec.Lat
	}
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, spec.Seed, network.Config{Latency: lat.HostHop, Jitter: lat.Jitter, Ordered: true})
	memory := mem.NewMemory()
	log := coherence.NewErrorLog()
	reg := spec.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	fab.AttachObs(reg)
	s := &System{Spec: spec, Eng: eng, Fab: fab, Mem: memory, Log: log, Obs: reg}

	txnMods := spec.Org == OrgXGTxn1L || spec.Org == OrgXGTxn2L || spec.ForceTxnMods
	switch spec.Host {
	case HostHammer:
		s.buildHammer(spec, lat, txnMods)
	case HostMESI:
		s.buildMESI(spec, lat, txnMods)
	}
	if spec.Faults != nil && spec.Faults.Active() && len(s.Guards) > 0 {
		inj := faults.NewInjector(*spec.Faults, fab)
		inj.AttachObs(reg)
		for _, g := range s.Guards {
			inj.Watch(g.ID(), g.AccelID())
		}
		fab.SetInterceptor(inj)
		s.Faults = inj
	}
	if spec.Consistency != nil {
		s.Consistency = spec.Consistency
		// CPU cores record with accel id 0; device d's cores with d+1, so
		// the offline checker can attribute every observation — and
		// cross-accelerator violations name both devices involved.
		for i, sq := range s.CPUSeqs {
			sq.Rec = spec.Consistency.DeviceStream(i, sq.Name(), 0)
		}
		for j, sq := range s.AccelSeqs {
			dev := 0
			if j < len(s.accelSeqDevs) {
				dev = s.accelSeqDevs[j]
			}
			sq.Rec = spec.Consistency.DeviceStream(len(s.CPUSeqs)+j, sq.Name(), dev+1)
		}
	}
	return s
}

func (s *System) hammerCfg(small, txnMods bool) hammer.Config {
	cfg := hammer.DefaultConfig()
	if small {
		cfg.Sets, cfg.Ways = 2, 2
	}
	cfg.TxnMods = txnMods
	return cfg
}

func (s *System) mesiCfg(small, txnMods bool) mesi.Config {
	cfg := mesi.DefaultConfig()
	if small {
		cfg.L1Sets, cfg.L1Ways = 2, 2
		cfg.L2Sets, cfg.L2Ways = 4, 2
	}
	cfg.TxnMods = txnMods
	return cfg
}

func (s *System) accelCfg(small bool) accel.Config {
	cfg := accel.DefaultConfig()
	if small {
		cfg.L1Sets, cfg.L1Ways = 2, 2
		cfg.L2Sets, cfg.L2Ways = 4, 2
	}
	if s.Spec.AccelL1KB > 0 {
		if sets := s.Spec.AccelL1KB * 1024 / (mem.BlockBytes * cfg.L1Ways); sets > 0 {
			cfg.L1Sets = sets
		}
	}
	return cfg
}

func (s *System) guardCfg(spec Spec, lat Latencies) core.Config {
	return core.Config{
		Mode:            spec.Org.Mode(),
		Perms:           spec.Perms,
		Timeout:         spec.Timeout,
		GuardLat:        lat.GuardLat,
		Rate:            spec.Rate,
		DisableAfter:    spec.DisableAfter,
		RecallRetries:   spec.RecallRetries,
		QuarantineAfter: spec.QuarantineAfter,
		RecoverAfter:    spec.RecoverAfter,
		Spans:           spec.Spans,
	}
}

func (s *System) buildHammer(spec Spec, lat Latencies, txnMods bool) {
	cfg := s.hammerCfg(spec.Small, txnMods)
	s.HDir = hammer.NewDirectory(nodeHost, "hammer.dir", s.Eng, s.Fab, s.Mem, cfg, s.Log)
	s.setHome(s.HDir)

	// Count the caches that will participate in broadcasts (each
	// accelerator device contributes its own set).
	nCaches := spec.CPUs
	switch spec.Org {
	case OrgAccelSide, OrgHostSide:
		nCaches += spec.Accels * spec.AccelCores
	case OrgXGFull1L, OrgXGTxn1L:
		nCaches += spec.Accels * spec.AccelCores // one guard per accelerator core
	default:
		nCaches += spec.Accels // one guard in front of each shared accelerator L2
	}

	nCaches += spec.ExtraHammerPeers
	responses := nCaches // (nCaches-1 peers) + 1 memory response

	for i := 0; i < spec.CPUs; i++ {
		c := hammer.NewCache(nodeCPU+coherence.NodeID(i), fmt.Sprintf("hammer.C[%d]", i),
			s.Fab, nodeHost, responses, cfg, s.Log)
		s.HCaches = append(s.HCaches, c)
		s.register(c, cpuCache)
		s.HDir.AddPeer(c.ID())
		sq := seq.New(nodeCPUSeq+coherence.NodeID(i), fmt.Sprintf("cpu[%d]", i), s.Eng, s.Fab, c.ID())
		s.CPUSeqs = append(s.CPUSeqs, sq)
		s.Fab.SetRoutePair(sq.ID(), c.ID(), network.Config{Latency: lat.CoreToCache, Ordered: true})
	}

	for d := 0; d < spec.Accels; d++ {
		switch spec.Org {
		case OrgAccelSide, OrgHostSide:
			// The accelerator's cache is sized like the accelerator L1 of
			// the guard organizations, for a fair comparison.
			acfg := cfg
			if !spec.Small {
				acfg.Sets, acfg.Ways = 64, 4
			}
			for i := 0; i < spec.AccelCores; i++ {
				id := devID(d, nodeAccel, i)
				c := hammer.NewCache(id, devName(d, fmt.Sprintf("hammer.A[%d]", i)),
					s.Fab, nodeHost, responses, acfg, s.Log)
				s.AccelHCaches = append(s.AccelHCaches, c)
				s.register(c, hostProtoCache)
				s.HDir.AddPeer(c.ID())
				sq := seq.New(devID(d, nodeAccSeq, i), devName(d, fmt.Sprintf("acc[%d]", i)), s.Eng, s.Fab, c.ID())
				s.AccelSeqs = append(s.AccelSeqs, sq)
				s.accelSeqDevs = append(s.accelSeqDevs, d)
				if spec.Org == OrgAccelSide {
					// Cache at the accelerator: cheap hits, every protocol
					// message crosses.
					s.Fab.SetRoutePair(sq.ID(), c.ID(), network.Config{Latency: lat.CoreToCache, Ordered: true})
					s.crossingRoutes(c.ID(), lat)
				} else {
					// Cache at the host: every access crosses.
					s.Fab.SetRoutePair(sq.ID(), c.ID(), network.Config{Latency: lat.Crossing, Ordered: true})
				}
			}
		case OrgXGFull1L, OrgXGTxn1L:
			for i := 0; i < spec.AccelCores; i++ {
				xgID := devID(d, nodeXG, i)
				acID := devID(d, nodeAccel, i)
				g := core.NewHammerGuard(xgID, devName(d, fmt.Sprintf("xg[%d]", i)), s.Eng, s.Fab,
					acID, nodeHost, responses, s.guardCfg(spec, lat), s.Log)
				g.SetAccelTag(d)
				g.AttachObs(s.Obs)
				s.Guards = append(s.Guards, g)
				s.HDir.AddPeer(g.ID())
				s.outstandingFns = append(s.outstandingFns, g.Outstanding)
				s.attachAccelL1(spec, lat, g, acID, xgID, d, i)
			}
		default: // two-level
			xgID := devID(d, nodeXG, 0)
			g := core.NewHammerGuard(xgID, devName(d, "xg"), s.Eng, s.Fab,
				devID(d, nodeAccelL2, 0), nodeHost, responses, s.guardCfg(spec, lat), s.Log)
			g.SetAccelTag(d)
			g.AttachObs(s.Obs)
			s.Guards = append(s.Guards, g)
			s.HDir.AddPeer(g.ID())
			s.outstandingFns = append(s.outstandingFns, g.Outstanding)
			s.buildTwoLevelAccel(spec, lat, g, xgID, d)
		}
	}
}

// attachAccelL1 wires device d's single-level accelerator cache (or the
// custom accelerator provided by the spec) behind guard g, including the
// guard's device-reset hook for quarantine recovery.
func (s *System) attachAccelL1(spec Spec, lat Latencies, g *core.Guard, acID, xgID coherence.NodeID, d, i int) {
	s.Fab.SetRoutePair(acID, xgID, network.Config{Latency: lat.Crossing, Jitter: lat.Jitter, Ordered: true})
	if spec.CustomAccel != nil {
		s.guardAccelView = append(s.guardAccelView, nil)
		if fn := spec.CustomAccel(s, acID, xgID); fn != nil {
			s.outstandingFns = append(s.outstandingFns, fn)
		}
		g.SetResetHook(s.deviceResetHook(acID))
		return
	}
	l1 := accel.NewL1Cache(acID, devName(d, fmt.Sprintf("accelL1[%d]", i)), s.Fab, xgID, s.accelCfg(spec.Small))
	s.AccelL1s = append(s.AccelL1s, l1)
	s.register(l1, guardedCache)
	s.guardAccelView = append(s.guardAccelView, heldView(l1))
	sq := seq.New(devID(d, nodeAccSeq, i), devName(d, fmt.Sprintf("acc[%d]", i)), s.Eng, s.Fab, acID)
	s.AccelSeqs = append(s.AccelSeqs, sq)
	s.accelSeqDevs = append(s.accelSeqDevs, d)
	s.Fab.SetRoutePair(sq.ID(), acID, network.Config{Latency: lat.CoreToCache, Ordered: true})
	// Device reset: abort the core's in-flight operations first (no
	// completions will come), then wipe the cache under the new epoch.
	// sq.Rec is attached after build; the closure reads it at fire time.
	g.SetResetHook(func(epoch uint32) {
		sq.Abort()
		sq.Rec.SetEpoch(epoch)
		l1.Reset(epoch)
	})
}

func (s *System) buildMESI(spec Spec, lat Latencies, txnMods bool) {
	cfg := s.mesiCfg(spec.Small, txnMods)
	s.ML2 = mesi.NewL2(nodeHost, "mesi.L2", s.Eng, s.Fab, s.Mem, cfg, s.Log)
	s.setHome(s.ML2)

	for i := 0; i < spec.CPUs; i++ {
		l1 := mesi.NewL1(nodeCPU+coherence.NodeID(i), fmt.Sprintf("mesi.L1[%d]", i),
			s.Fab, nodeHost, cfg, s.Log)
		s.ML1s = append(s.ML1s, l1)
		s.register(l1, cpuCache)
		sq := seq.New(nodeCPUSeq+coherence.NodeID(i), fmt.Sprintf("cpu[%d]", i), s.Eng, s.Fab, l1.ID())
		s.CPUSeqs = append(s.CPUSeqs, sq)
		s.Fab.SetRoutePair(sq.ID(), l1.ID(), network.Config{Latency: lat.CoreToCache, Ordered: true})
	}

	for d := 0; d < spec.Accels; d++ {
		switch spec.Org {
		case OrgAccelSide, OrgHostSide:
			for i := 0; i < spec.AccelCores; i++ {
				id := devID(d, nodeAccel, i)
				l1 := mesi.NewL1(id, devName(d, fmt.Sprintf("mesi.A[%d]", i)), s.Fab, nodeHost, cfg, s.Log)
				s.AccelMCaches = append(s.AccelMCaches, l1)
				s.register(l1, hostProtoCache)
				sq := seq.New(devID(d, nodeAccSeq, i), devName(d, fmt.Sprintf("acc[%d]", i)), s.Eng, s.Fab, id)
				s.AccelSeqs = append(s.AccelSeqs, sq)
				s.accelSeqDevs = append(s.accelSeqDevs, d)
				if spec.Org == OrgAccelSide {
					s.Fab.SetRoutePair(sq.ID(), id, network.Config{Latency: lat.CoreToCache, Ordered: true})
					s.crossingRoutes(id, lat)
				} else {
					s.Fab.SetRoutePair(sq.ID(), id, network.Config{Latency: lat.Crossing, Ordered: true})
				}
			}
		case OrgXGFull1L, OrgXGTxn1L:
			for i := 0; i < spec.AccelCores; i++ {
				xgID := devID(d, nodeXG, i)
				acID := devID(d, nodeAccel, i)
				g := core.NewMESIGuard(xgID, devName(d, fmt.Sprintf("xg[%d]", i)), s.Eng, s.Fab,
					acID, nodeHost, s.guardCfg(spec, lat), s.Log)
				g.SetAccelTag(d)
				g.AttachObs(s.Obs)
				s.Guards = append(s.Guards, g)
				s.outstandingFns = append(s.outstandingFns, g.Outstanding)
				s.attachAccelL1(spec, lat, g, acID, xgID, d, i)
			}
		default:
			xgID := devID(d, nodeXG, 0)
			g := core.NewMESIGuard(xgID, devName(d, "xg"), s.Eng, s.Fab,
				devID(d, nodeAccelL2, 0), nodeHost, s.guardCfg(spec, lat), s.Log)
			g.SetAccelTag(d)
			g.AttachObs(s.Obs)
			s.Guards = append(s.Guards, g)
			s.outstandingFns = append(s.outstandingFns, g.Outstanding)
			s.buildTwoLevelAccel(spec, lat, g, xgID, d)
		}
	}
}

// buildTwoLevelAccel wires device d's Figure 2d accelerator: inner L1s
// behind the device's shared accelerator L2 which talks to guard g,
// including the guard's device-reset hook for quarantine recovery.
func (s *System) buildTwoLevelAccel(spec Spec, lat Latencies, g *core.Guard, xgID coherence.NodeID, d int) {
	l2ID := devID(d, nodeAccelL2, 0)
	if spec.Org == OrgXGWeak && spec.CustomAccel == nil {
		// The weak hierarchy predates the epoch protocol and does not
		// participate in quarantine recovery (no reset hook is wired).
		s.buildWeakAccel(spec, lat, xgID)
		return
	}
	if spec.CustomAccel != nil {
		s.guardAccelView = append(s.guardAccelView, nil)
		s.Fab.SetRoutePair(l2ID, xgID, network.Config{Latency: lat.Crossing, Jitter: lat.Jitter, Ordered: true})
		if fn := spec.CustomAccel(s, l2ID, xgID); fn != nil {
			s.outstandingFns = append(s.outstandingFns, fn)
		}
		g.SetResetHook(s.deviceResetHook(l2ID))
		return
	}
	acfg := s.accelCfg(spec.Small)
	l2 := accel.NewSharedL2(l2ID, devName(d, "accelL2"), s.Eng, s.Fab, xgID, acfg)
	if d == 0 {
		s.AccelL2 = l2
	}
	s.AccelL2s = append(s.AccelL2s, l2)
	s.register(l2, guardedCache)
	group := innerGroup{l2: l2}
	s.guardAccelView = append(s.guardAccelView, heldView(l2))
	s.Fab.SetRoutePair(l2ID, xgID, network.Config{Latency: lat.Crossing, Jitter: lat.Jitter, Ordered: true})
	var seqs []*seq.Sequencer
	for i := 0; i < spec.AccelCores; i++ {
		id := devID(d, nodeAccel, i)
		l1 := accel.NewInnerL1(id, devName(d, fmt.Sprintf("accel2L.L1[%d]", i)), s.Fab, l2ID, acfg)
		s.InnerL1s = append(s.InnerL1s, l1)
		s.register(l1, innerCache)
		group.l1s = append(group.l1s, l1)
		sq := seq.New(devID(d, nodeAccSeq, i), devName(d, fmt.Sprintf("acc[%d]", i)), s.Eng, s.Fab, id)
		s.AccelSeqs = append(s.AccelSeqs, sq)
		seqs = append(seqs, sq)
		s.accelSeqDevs = append(s.accelSeqDevs, d)
		s.Fab.SetRoutePair(sq.ID(), id, network.Config{Latency: lat.CoreToCache, Ordered: true})
		s.Fab.SetRoutePair(id, l2ID, network.Config{Latency: lat.AccelHop, Jitter: 1, Ordered: true})
	}
	s.innerGroups = append(s.innerGroups, group)
	// Device reset: abort every core's operations, then wipe the whole
	// hierarchy — inner L1s before the shared L2 so no L1 retains a line
	// the L2 no longer tracks (inclusivity).
	l1s := group.l1s
	g.SetResetHook(func(epoch uint32) {
		for _, sq := range seqs {
			sq.Abort()
			sq.Rec.SetEpoch(epoch)
		}
		for _, l1 := range l1s {
			l1.Reset(epoch)
		}
		l2.Reset(epoch)
	})
}

// buildWeakAccel wires the weakly-coherent hierarchy: incoherent WeakL1s
// behind a host-coherent WeakL2 talking to the guard.
func (s *System) buildWeakAccel(spec Spec, lat Latencies, xgID coherence.NodeID) {
	acfg := s.accelCfg(spec.Small)
	s.WeakL2C = accel.NewWeakL2(nodeAccelL2, "weakL2", s.Eng, s.Fab, xgID, acfg)
	s.register(s.WeakL2C, guardedCache)
	s.guardAccelView = append(s.guardAccelView, heldView(s.WeakL2C))
	s.Fab.SetRoutePair(nodeAccelL2, xgID, network.Config{Latency: lat.Crossing, Jitter: lat.Jitter, Ordered: true})
	for i := 0; i < spec.AccelCores; i++ {
		id := nodeAccel + coherence.NodeID(i)
		l1 := accel.NewWeakL1(id, fmt.Sprintf("weakL1[%d]", i), s.Eng, s.Fab, nodeAccelL2, acfg)
		s.WeakL1s = append(s.WeakL1s, l1)
		s.register(l1, innerCache)
		sq := seq.New(nodeAccSeq+coherence.NodeID(i), fmt.Sprintf("acc[%d]", i), s.Eng, s.Fab, id)
		s.AccelSeqs = append(s.AccelSeqs, sq)
		s.accelSeqDevs = append(s.accelSeqDevs, 0)
		s.Fab.SetRoutePair(sq.ID(), id, network.Config{Latency: lat.CoreToCache, Ordered: true})
		s.Fab.SetRoutePair(id, nodeAccelL2, network.Config{Latency: lat.AccelHop, Jitter: 1, Ordered: true})
	}
}

// crossingRoutes makes every channel between node and host components pay
// the crossing latency (accel-side organization).
func (s *System) crossingRoutes(node coherence.NodeID, lat Latencies) {
	cfg := network.Config{Latency: lat.Crossing, Jitter: lat.Jitter, Ordered: true}
	s.Fab.SetRoutePair(node, nodeHost, cfg)
	for i := 0; i < s.Spec.CPUs; i++ {
		s.Fab.SetRoutePair(node, nodeCPU+coherence.NodeID(i), cfg)
	}
}

// --- tester.System implementation ---

// Engine implements tester.System.
func (s *System) Engine() *sim.Engine { return s.Eng }

// Sequencers implements tester.System (CPU cores first, then the
// accelerator cores).
func (s *System) Sequencers() []*seq.Sequencer {
	out := append([]*seq.Sequencer{}, s.CPUSeqs...)
	return append(out, s.AccelSeqs...)
}

// Outstanding implements tester.System.
func (s *System) Outstanding() int {
	n := s.home.Outstanding()
	for _, c := range s.caches {
		n += c.Outstanding()
	}
	for _, fn := range s.outstandingFns {
		n += fn()
	}
	for _, sq := range s.Sequencers() {
		n += sq.Outstanding()
	}
	return n
}

// heldView snapshots the stable lines of the cache a guard fronts.
func heldView(c cacheView) func() map[mem.Addr]int {
	return func() map[mem.Addr]int {
		out := map[mem.Addr]int{}
		c.Held(func(addr mem.Addr, lvl chassis.Level, _ *mem.Block, _ bool) { out[addr] = int(lvl) })
		return out
	}
}
