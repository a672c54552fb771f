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
	// Ops is the free list of memory operations every sequencer of the
	// machine shares; a sequencer added by Spec.CustomAccel takes &s.Ops.
	Ops    seq.OpList
	Guards []*core.Guard

	// Consistency is the observation recorder installed by
	// Spec.Consistency (nil when the machine runs unrecorded).
	Consistency *consistency.Recorder

	// Faults is the fault injector installed by Spec.Faults (nil when the
	// machine runs clean); callers read its per-kind injection counts.
	Faults *faults.Injector

	// The host's home node (one is nil).
	HDir *hammer.Directory
	ML2  *mesi.L2

	// AccelL2 is device 0's shared accelerator L2 (two-level XG
	// organizations); WeakL1s are the weak hierarchy's private L1s
	// (OrgXGWeak).
	AccelL2 *accel.SharedL2
	WeakL1s []*accel.WeakL1

	lat Latencies // the latency model Build routes with

	// caches lists every cache Build wired, whatever its protocol, with its
	// place in the machine; home is the host protocol's home node. The
	// audits, the coverage merge and the outstanding counts walk these and
	// never the typed handles above.
	caches []placedCache
	home   homeView

	// crossings lists the node pairs routed across the host<->accelerator
	// crossing (cross).
	crossings [][2]coherence.NodeID
	// outstandingFns counts the custom accelerators' open work.
	outstandingFns []func() int
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
	if i < 0 || i >= len(s.AccelSeqs) {
		return 0
	}
	return DeviceOf(s.AccelSeqs[i].ID())
}

// Crossings returns the node pairs Build routed across the
// host<->accelerator crossing, each once; traffic flows both ways.
func (s *System) Crossings() [][2]coherence.NodeID { return s.crossings }

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
	s := &System{Spec: spec, Eng: eng, Fab: fab, Mem: memory, Log: log, Obs: reg, lat: lat}

	// The §3.2 host modifications serve the Transactional guard.
	txnMods := spec.Org == OrgXGTxn1L || spec.Org == OrgXGTxn2L
	if spec.Host == HostHammer {
		s.build(s.hammerHost(txnMods))
	} else {
		s.build(s.mesiHost(txnMods))
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
			sq.Rec = spec.Consistency.DeviceStream(len(s.CPUSeqs)+j, sq.Name(), s.AccelSeqDevice(j)+1)
		}
	}
	return s
}

// hostParts is what the device loop needs of a host protocol: the name
// prefixes of its CPU and accelerator caches, and constructors for a cache
// of the protocol (accelSide for an accelerator's own) and for a guard.
type hostParts struct {
	cpuName, accName string
	cache            func(id coherence.NodeID, name string, accelSide bool) cacheView
	guard            func(id, accelID coherence.NodeID, name string, cfg core.Config) *core.Guard
}

// hammerHost builds the hammer directory and returns hammer's parts. Every
// cache and guard they build joins the directory's broadcast set, which
// is sized up front: a requestor awaits every other member plus memory.
func (s *System) hammerHost(txnMods bool) hostParts {
	spec := s.Spec
	cfg := hammer.DefaultConfig()
	if spec.Small {
		cfg.Sets, cfg.Ways = 2, 2
	}
	cfg.TxnMods = txnMods
	// An accelerator's own cache is sized like the accelerator L1 of the
	// guard organizations, for a fair comparison.
	acfg := cfg
	if !spec.Small {
		acfg.Sets, acfg.Ways = 64, 4
	}
	s.HDir = hammer.NewDirectory(nodeHost, "hammer.dir", s.Eng, s.Fab, s.Mem, cfg, s.Log)
	s.setHome(s.HDir)
	// Each device adds one member per accelerator core, or one guard in
	// front of its shared L2.
	perDevice := spec.AccelCores
	if spec.Org.TwoLevel() {
		perDevice = 1
	}
	responses := spec.CPUs + spec.Accels*perDevice
	return hostParts{cpuName: "hammer.C", accName: "hammer.A",
		cache: func(id coherence.NodeID, name string, accelSide bool) cacheView {
			ccfg := cfg
			if accelSide {
				ccfg = acfg
			}
			c := hammer.NewCache(id, name, s.Fab, nodeHost, responses, ccfg, s.Log)
			s.HDir.AddPeer(id)
			return c
		},
		guard: func(id, accelID coherence.NodeID, name string, gcfg core.Config) *core.Guard {
			g := core.NewHammerGuard(id, name, s.Eng, s.Fab, accelID, nodeHost, responses, gcfg, s.Log)
			s.HDir.AddPeer(id)
			return g
		},
	}
}

// mesiHost builds the MESI L2 and returns MESI's parts.
func (s *System) mesiHost(txnMods bool) hostParts {
	cfg := mesi.DefaultConfig()
	if s.Spec.Small {
		cfg.L1Sets, cfg.L1Ways = 2, 2
		cfg.L2Sets, cfg.L2Ways = 4, 2
	}
	cfg.TxnMods = txnMods
	s.ML2 = mesi.NewL2(nodeHost, "mesi.L2", s.Eng, s.Fab, s.Mem, cfg, s.Log)
	s.setHome(s.ML2)
	return hostParts{cpuName: "mesi.L1", accName: "mesi.A",
		cache: func(id coherence.NodeID, name string, _ bool) cacheView {
			return mesi.NewL1(id, name, s.Fab, nodeHost, cfg, s.Log)
		},
		guard: func(id, accelID coherence.NodeID, name string, gcfg core.Config) *core.Guard {
			return core.NewMESIGuard(id, name, s.Eng, s.Fab, accelID, nodeHost, gcfg, s.Log)
		},
	}
}

// build wires the CPU cores, then each accelerator device in turn, out of
// the host's parts.
func (s *System) build(h hostParts) {
	spec := s.Spec
	for i := 0; i < spec.CPUs; i++ {
		c := h.cache(nodeCPU+coherence.NodeID(i), fmt.Sprintf("%s[%d]", h.cpuName, i), false)
		s.register(c, cpuCache)
		sq := seq.New(nodeCPUSeq+coherence.NodeID(i), fmt.Sprintf("cpu[%d]", i), s.Eng, s.Fab, c.ID(), &s.Ops)
		s.CPUSeqs = append(s.CPUSeqs, sq)
		s.link(sq.ID(), c.ID(), s.lat.CoreToCache, 0)
	}
	for d := 0; d < spec.Accels; d++ {
		switch {
		case !spec.Org.UsesXG():
			for i := 0; i < spec.AccelCores; i++ {
				c := h.cache(devID(d, nodeAccel, i), devName(d, fmt.Sprintf("%s[%d]", h.accName, i)), true)
				s.register(c, hostProtoCache)
				s.routeHostProtoCache(s.accelSeq(d, i, c.ID()), c.ID())
			}
		case spec.Org.TwoLevel():
			xgID, l2ID := devID(d, nodeXG, 0), devID(d, nodeAccelL2, 0)
			s.buildTwoLevelAccel(s.addGuard(h, d, xgID, l2ID, "xg"), xgID, l2ID, d)
		default:
			for i := 0; i < spec.AccelCores; i++ {
				xgID, acID := devID(d, nodeXG, i), devID(d, nodeAccel, i)
				s.attachAccelL1(s.addGuard(h, d, xgID, acID, fmt.Sprintf("xg[%d]", i)), xgID, acID, d, i)
			}
		}
	}
}

func (s *System) accelCfg() accel.Config {
	cfg := accel.DefaultConfig()
	if s.Spec.Small {
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

// addGuard builds device d's guard at xgID in front of accelID, and routes
// the link between them across the crossing.
func (s *System) addGuard(h hostParts, d int, xgID, accelID coherence.NodeID, name string) *core.Guard {
	spec := s.Spec
	g := h.guard(xgID, accelID, devName(d, name), core.Config{
		Mode:            spec.Org.Mode(),
		Perms:           spec.Perms,
		Timeout:         spec.Timeout,
		GuardLat:        s.lat.GuardLat,
		Rate:            spec.Rate,
		RecallRetries:   spec.RecallRetries,
		QuarantineAfter: spec.QuarantineAfter,
		RecoverAfter:    spec.RecoverAfter,
		Spans:           spec.Spans,
	})
	g.SetAccelTag(d)
	g.AttachObs(s.Obs)
	s.Guards = append(s.Guards, g)
	s.cross(accelID, xgID, network.Config{Jitter: s.lat.Jitter, Ordered: true})
	return g
}

// attachCustom hands the accelerator side of guard g to Spec.CustomAccel.
func (s *System) attachCustom(g *core.Guard, xgID, accelID coherence.NodeID) {
	if fn := s.Spec.CustomAccel(s, accelID, xgID); fn != nil {
		s.outstandingFns = append(s.outstandingFns, fn)
	}
	g.SetResetHook(s.deviceResetHook(accelID))
}

// accelSeq builds the sequencer of device d's core i, in front of cache.
func (s *System) accelSeq(d, i int, cache coherence.NodeID) *seq.Sequencer {
	sq := seq.New(devID(d, nodeAccSeq, i), devName(d, fmt.Sprintf("acc[%d]", i)), s.Eng, s.Fab, cache, &s.Ops)
	s.AccelSeqs = append(s.AccelSeqs, sq)
	return sq
}

// routeHostProtoCache routes an accelerator core's cache of the host
// protocol (Fig. 2a/2b) and its sequencer sq.
func (s *System) routeHostProtoCache(sq *seq.Sequencer, c coherence.NodeID) {
	if s.Spec.Org == OrgHostSide {
		// Cache at the host: every access crosses.
		s.cross(sq.ID(), c, network.Config{Ordered: true})
		return
	}
	// Cache at the accelerator: cheap hits, every protocol message crosses.
	s.link(sq.ID(), c, s.lat.CoreToCache, 0)
	cfg := network.Config{Jitter: s.lat.Jitter, Ordered: true}
	s.cross(c, nodeHost, cfg)
	for i := 0; i < s.Spec.CPUs; i++ {
		s.cross(c, nodeCPU+coherence.NodeID(i), cfg)
	}
}

// attachAccelL1 wires device d's single-level accelerator cache (or the
// custom accelerator provided by the spec) behind guard g, including the
// guard's device-reset hook for quarantine recovery.
func (s *System) attachAccelL1(g *core.Guard, xgID, acID coherence.NodeID, d, i int) {
	if s.Spec.CustomAccel != nil {
		s.attachCustom(g, xgID, acID)
		return
	}
	l1 := accel.NewL1Cache(acID, devName(d, fmt.Sprintf("accelL1[%d]", i)), s.Fab, xgID, s.accelCfg())
	s.register(l1, guardedCache)
	sq := s.accelSeq(d, i, acID)
	s.link(sq.ID(), acID, s.lat.CoreToCache, 0)
	// Device reset: abort the core's in-flight operations first (no
	// completions will come), then wipe the cache under the new epoch.
	// sq.Rec is attached after build; the closure reads it at fire time.
	g.SetResetHook(func(epoch uint32) {
		sq.Abort()
		sq.Rec.SetEpoch(epoch)
		l1.Reset(epoch)
	})
}

// buildTwoLevelAccel wires device d's Figure 2d accelerator: inner L1s
// behind the device's shared accelerator L2 at l2ID, which talks to guard
// g, including the guard's device-reset hook for quarantine recovery.
func (s *System) buildTwoLevelAccel(g *core.Guard, xgID, l2ID coherence.NodeID, d int) {
	if s.Spec.CustomAccel != nil {
		s.attachCustom(g, xgID, l2ID)
		return
	}
	if s.Spec.Org == OrgXGWeak {
		// The weak hierarchy predates the epoch protocol and does not
		// participate in quarantine recovery (no reset hook is wired).
		s.buildWeakAccel(xgID)
		return
	}
	acfg := s.accelCfg()
	l2 := accel.NewSharedL2(l2ID, devName(d, "accelL2"), s.Eng, s.Fab, xgID, acfg)
	if d == 0 {
		s.AccelL2 = l2
	}
	s.register(l2, guardedCache)
	group := innerGroup{l2: l2}
	var seqs []*seq.Sequencer
	for i := 0; i < s.Spec.AccelCores; i++ {
		id := devID(d, nodeAccel, i)
		l1 := accel.NewInnerL1(id, devName(d, fmt.Sprintf("accel2L.L1[%d]", i)), s.Fab, l2ID, acfg)
		s.register(l1, innerCache)
		group.l1s = append(group.l1s, l1)
		sq := s.accelSeq(d, i, id)
		seqs = append(seqs, sq)
		s.link(sq.ID(), id, s.lat.CoreToCache, 0)
		s.link(id, l2ID, s.lat.AccelHop, 1)
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
func (s *System) buildWeakAccel(xgID coherence.NodeID) {
	acfg := s.accelCfg()
	l2 := accel.NewWeakL2(nodeAccelL2, "weakL2", s.Eng, s.Fab, xgID, acfg)
	s.register(l2, guardedCache)
	for i := 0; i < s.Spec.AccelCores; i++ {
		id := nodeAccel + coherence.NodeID(i)
		l1 := accel.NewWeakL1(id, fmt.Sprintf("weakL1[%d]", i), s.Eng, s.Fab, nodeAccelL2, acfg)
		s.WeakL1s = append(s.WeakL1s, l1)
		s.register(l1, innerCache)
		sq := s.accelSeq(0, i, id)
		s.link(sq.ID(), id, s.lat.CoreToCache, 0)
		s.link(id, nodeAccelL2, s.lat.AccelHop, 1)
	}
}

// link routes a<->b inside the host or inside a device.
func (s *System) link(a, b coherence.NodeID, lat, jitter sim.Time) {
	s.Fab.SetRoutePair(a, b, network.Config{Latency: lat, Jitter: jitter, Ordered: true})
}

// cross routes a<->b across the host<->accelerator crossing, at the
// crossing latency, and records the pair (Crossings).
func (s *System) cross(a, b coherence.NodeID, cfg network.Config) {
	cfg.Latency = s.lat.Crossing
	s.Fab.SetRoutePair(a, b, cfg)
	s.crossings = append(s.crossings, [2]coherence.NodeID{a, b})
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
	for _, g := range s.Guards {
		n += g.Outstanding()
	}
	for _, fn := range s.outstandingFns {
		n += fn()
	}
	for _, sq := range s.Sequencers() {
		n += sq.Outstanding()
	}
	return n
}
