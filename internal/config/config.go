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
	// CustomAccel, when set on an XG organization, replaces the
	// accelerator cache hierarchy: Build invokes it once per guard, with
	// the guard's slot (CustomSlot), to wire the slot's device for the
	// run. With several devices it runs once per guard per device;
	// DeviceOf(slot.AccelID) recovers which device is being wired. The
	// fuzz harness uses this to attach pathological accelerators (paper
	// §4.2).
	CustomAccel func(s *System, slot *CustomSlot)
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
	// (OrgXGWeak), device by device.
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
	// innerScopes audits each two-level device's inner L1s under its own
	// shared L2, so the inner audit never mixes devices.
	innerScopes []chassis.Scope
	// custom is what Spec.CustomAccel builds on, nil without one.
	custom *customWiring
	// audit is the audits' storage, made at the first audit (audit.go).
	audit *auditState
	// closed is set by Close and cleared by the reset that hands the
	// machine out again.
	closed bool
}

// customWiring lists the guards whose accelerator side Spec.CustomAccel
// wires, afresh on every reset, after the machine forgets what the last
// run's wiring added: the fabric's nodes and routes past wired, and the
// sequencers past the first seqs of AccelSeqs.
type customWiring struct {
	slots []CustomSlot
	wired network.Mark
	seqs  int
}

// CustomSlot is one guard whose accelerator side Spec.CustomAccel
// provides. The slot parks with its machine, and so does the device in it:
// every reset first forgets the last run's custom wiring and then invokes
// CustomAccel with the slot, which either reconfigures Dev and registers
// it again or builds a new device, registers it and leaves it in Dev. A
// device of the wanted type is reconfigured, not remade (SlotDevice), so a
// machine reset in place allocates no accelerator.
type CustomSlot struct {
	// AccelID is the accelerator-side node, XGID the guard in front of it.
	AccelID, XGID coherence.NodeID
	// Dev is the slot's device, nil until CustomAccel first sets it. Its
	// optional methods join it to the machine: Outstanding() int counts
	// its open work (System.Outstanding), and Reset(epoch uint32) runs
	// when its guard resets it for readmission under a new epoch
	// (quarantine recovery). A device without Reset keeps stamping its old
	// epoch, and its guard drops everything it sends after readmission as
	// stale.
	Dev any
}

// SlotDevice returns slot's device when it is a *T, else a new zero T,
// which it leaves in the slot: a builder's first step, before it
// configures the device for the run and registers it.
func SlotDevice[T any](slot *CustomSlot) *T {
	d, ok := slot.Dev.(*T)
	if !ok {
		d = new(T)
		slot.Dev = d
	}
	return d
}

// CustomSlots returns the machine's custom accelerator slots in guard
// order (nil without Spec.CustomAccel).
func (s *System) CustomSlots() []CustomSlot {
	if s.custom == nil {
		return nil
	}
	return s.custom.slots
}

// cacheView is what the machine asks of a cache it built, whatever its
// protocol. A private cache answers all but Held through its chassis.
type cacheView interface {
	chassis.Holder
	ID() coherence.NodeID
	OpenTxns() int // lines with a transaction open, in O(1)
	Outstanding() int
	Coverage() *coherence.Coverage // nil when the cache declares no table
	Restart()                      // back to just built, for the next run
}

// innerL1 is a private L1 behind a shared accelerator L2, with the
// device-reset step the guard's hook runs.
type innerL1 interface {
	cacheView
	Reset(epoch uint32)
}

// homeView is the host protocol's home node: hammer's directory, or MESI's
// shared L2.
type homeView interface {
	chassis.Home
	Name() string
	OpenTxns() int
	Outstanding() int
	Coverage() *coherence.Coverage
	Restart()
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
	if s.audit != nil {
		s.audit.scopes = [2]*chassis.Scope{}
	}
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

// Coverages calls fn with the coverage of every controller that declares a
// transition table: the home node's, then the caches' in build order, then
// each guard's two, its accelerator half's and its host half's.
func (s *System) Coverages(fn func(*coherence.Coverage)) {
	fn(s.home.Coverage())
	for _, c := range s.caches {
		if cov := c.Coverage(); cov != nil {
			fn(cov)
		}
	}
	for _, g := range s.Guards {
		fn(g.Coverage())
		fn(g.HostCoverage())
	}
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

// Build returns the machine described by spec, ready to run: a closed
// machine of the same shape reset in place when one is parked (park.go),
// else a new one. Either way the machine ends in the same reset, so the
// two are the same machine.
func Build(spec Spec) *System {
	spec = normalize(spec)
	s := unpark(spec)
	if s == nil {
		s = construct(spec)
	}
	s.reset(spec)
	return s
}

// normalize fills in spec's defaults and panics on a machine too big to
// build.
func normalize(spec Spec) Spec {
	if spec.CPUs <= 0 {
		spec.CPUs = 2
	}
	if spec.AccelCores <= 0 {
		spec.AccelCores = 2
	}
	if spec.Accels <= 0 {
		spec.Accels = 1
	}
	if spec.Timeout == 0 {
		spec.Timeout = 100_000
	}
	if err := CheckSize(spec.CPUs, spec.AccelCores, spec.Accels); err != nil {
		panic("config: " + err.Error())
	}
	return spec
}

// construct wires a new machine of spec's shape: every component, route
// and instrument. What a run changes is left to reset, which Build calls
// next.
func construct(spec Spec) *System {
	lat := DefaultLatencies()
	if spec.Lat != nil {
		lat = *spec.Lat
	}
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, spec.Seed, network.Config{Latency: lat.HostHop, Jitter: lat.Jitter, Ordered: true})
	reg := obs.NewRegistry()
	fab.AttachObs(reg)
	s := &System{Spec: spec, Eng: eng, Fab: fab, Mem: mem.NewMemory(), Log: coherence.NewErrorLog(), Obs: reg,
		lat: lat}

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
		s.Faults = inj
	}
	s.Obs.Seal()
	if s.custom != nil {
		s.custom.wired, s.custom.seqs = fab.Mark(), len(s.AccelSeqs)
	}
	return s
}

// reset returns every part of the machine to its just-built state for a
// run of spec, keeping all its storage: Build ends in it, for a new
// machine and a parked one alike. The engine goes first (its queue is
// dropped, its streams rewound), then the agents, which forget what they
// hold without handing it back, then the fabric, whose pool takes every
// message and block back. Last come what spec supplies for the run: the
// custom accelerators, wired afresh, the fault plan and the recorder.
func (s *System) reset(spec Spec) {
	s.Spec, s.closed = spec, false
	s.Eng.Reset()
	s.home.Restart()
	for _, c := range s.caches {
		c.Restart()
	}
	gcfg := s.guardConfig()
	for _, g := range s.Guards {
		g.Restart(gcfg)
	}
	for _, sq := range s.CPUSeqs {
		sq.Restart()
	}
	for _, sq := range s.AccelSeqs {
		sq.Restart()
	}
	s.Fab.Reset(spec.Seed)
	s.Mem.Reset()
	s.Log.Reset()
	s.Obs.Reset()
	if c := s.custom; c != nil {
		s.Fab.Forget(c.wired)
		clear(s.AccelSeqs[c.seqs:])
		s.AccelSeqs = s.AccelSeqs[:c.seqs]
		for i := range c.slots {
			spec.CustomAccel(s, &c.slots[i])
			if c.slots[i].Dev == nil {
				panic("config: Spec.CustomAccel left no device in its slot")
			}
		}
	}
	if s.Faults != nil {
		s.Faults.Reset(*spec.Faults)
		s.Fab.SetInterceptor(s.Faults)
	}
	s.attachRecorder(spec.Consistency)
}

// attachRecorder gives every sequencer its observation stream of rec, which
// takes over the streams' storage from the last run's recorder. CPU cores
// record with accel id 0; device d's cores with d+1, so the offline checker
// can attribute every observation — and cross-accelerator violations name
// both devices involved.
func (s *System) attachRecorder(rec *consistency.Recorder) {
	if rec == nil {
		return
	}
	rec.Adopt(s.Consistency)
	s.Consistency = rec
	for i, sq := range s.CPUSeqs {
		sq.Rec = rec.DeviceStream(i, sq.Name(), 0)
	}
	for j, sq := range s.AccelSeqs {
		sq.Rec = rec.DeviceStream(len(s.CPUSeqs)+j, sq.Name(), s.AccelSeqDevice(j)+1)
	}
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
	g := h.guard(xgID, accelID, devName(d, name), s.guardConfig())
	g.AccelTag = d
	g.AttachObs(s.Obs)
	s.Guards = append(s.Guards, g)
	s.cross(accelID, xgID, network.Config{Jitter: s.lat.Jitter, Ordered: true})
	return g
}

// guardConfig is the guard configuration s.Spec asks for.
func (s *System) guardConfig() core.Config {
	spec := s.Spec
	return core.Config{
		Mode:            spec.Org.Mode(),
		Perms:           spec.Perms,
		Timeout:         spec.Timeout,
		GuardLat:        s.lat.GuardLat,
		Rate:            spec.Rate,
		RecallRetries:   spec.RecallRetries,
		QuarantineAfter: spec.QuarantineAfter,
		RecoverAfter:    spec.RecoverAfter,
		Spans:           spec.Spans,
	}
}

// attachCustom leaves the accelerator side of guard g to Spec.CustomAccel,
// which every reset invokes afresh. The guard's device reset runs the
// slot's device's Reset, if it has one, looked up when it fires.
func (s *System) attachCustom(g *core.Guard, xgID, accelID coherence.NodeID) {
	if s.custom == nil {
		s.custom = &customWiring{}
	}
	i := len(s.custom.slots)
	s.custom.slots = append(s.custom.slots, CustomSlot{AccelID: accelID, XGID: xgID})
	g.SetResetHook(func(epoch uint32) {
		if d, ok := s.custom.slots[i].Dev.(interface{ Reset(epoch uint32) }); ok {
			d.Reset(epoch)
		}
	})
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
// g, including the guard's device-reset hook for quarantine recovery. The
// weak hierarchy (OrgXGWeak) is the same device with the weak cells.
func (s *System) buildTwoLevelAccel(g *core.Guard, xgID, l2ID coherence.NodeID, d int) {
	if s.Spec.CustomAccel != nil {
		s.attachCustom(g, xgID, l2ID)
		return
	}
	acfg := s.accelCfg()
	weak := s.Spec.Org == OrgXGWeak
	var l2 *accel.SharedL2
	if weak {
		l2 = &accel.NewWeakL2(l2ID, devName(d, "weakL2"), s.Eng, s.Fab, xgID, acfg).SharedL2
	} else {
		l2 = accel.NewSharedL2(l2ID, devName(d, "accelL2"), s.Eng, s.Fab, xgID, acfg)
	}
	if d == 0 {
		s.AccelL2 = l2
	}
	s.register(l2, guardedCache)
	var l1s []innerL1
	var seqs []*seq.Sequencer
	for i := 0; i < s.Spec.AccelCores; i++ {
		id := devID(d, nodeAccel, i)
		var l1 innerL1
		if weak {
			w := accel.NewWeakL1(id, devName(d, fmt.Sprintf("weakL1[%d]", i)), s.Eng, s.Fab, l2ID, acfg)
			s.WeakL1s = append(s.WeakL1s, w)
			l1 = w
		} else {
			l1 = accel.NewInnerL1(id, devName(d, fmt.Sprintf("accel2L.L1[%d]", i)), s.Fab, l2ID, acfg)
		}
		s.register(l1, innerCache)
		l1s = append(l1s, l1)
		sq := s.accelSeq(d, i, id)
		seqs = append(seqs, sq)
		s.link(sq.ID(), id, s.lat.CoreToCache, 0)
		s.link(id, l2ID, s.lat.AccelHop, 1)
	}
	if !weak {
		// The weak model's inner copies disagree by design (§2.1's flush
		// model): only its L2's claims toward the guard are audited.
		s.innerScopes = append(s.innerScopes, chassis.Scope{Caches: chassis.Claimants(l1s), Home: l2, Values: true})
	}
	// Device reset: abort every core's operations, then wipe the whole
	// hierarchy — inner L1s before the shared L2 so no L1 retains a line
	// the L2 no longer tracks (inclusivity).
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

// Close ends the machine's run. Nothing of it may be read after Close —
// not its log, its registry, its agents or a stream — and it must not run
// again: Close parks it for the next Build of its shape to reset in place
// (park.go), its random streams' sources handed to the free list. Under
// the lifetime check (Fab.CheckLifetimes, on in -race builds) it parks
// nothing and poisons the random streams instead. Closing twice is
// harmless.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.Eng.Close()
	if s.Eng.Recycles() {
		park(s)
	}
}

// --- tester.System implementation ---

// Engine implements tester.System.
func (s *System) Engine() *sim.Engine { return s.Eng }

// Sequencers implements tester.System (CPU cores first, then the
// accelerator cores).
func (s *System) Sequencers() []*seq.Sequencer {
	out := make([]*seq.Sequencer, 0, len(s.CPUSeqs)+len(s.AccelSeqs))
	return append(append(out, s.CPUSeqs...), s.AccelSeqs...)
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
	for _, slot := range s.CustomSlots() {
		if d, ok := slot.Dev.(interface{ Outstanding() int }); ok {
			n += d.Outstanding()
		}
	}
	for _, sq := range s.CPUSeqs {
		n += sq.Outstanding()
	}
	for _, sq := range s.AccelSeqs {
		n += sq.Outstanding()
	}
	return n
}

// HostOutstanding reports open transactions in the host protocol and CPU
// sequencers only (the accelerator side may legitimately be wedged when
// it is a fuzzer).
func (s *System) HostOutstanding() int {
	n := s.home.Outstanding()
	for _, sq := range s.CPUSeqs {
		n += sq.Outstanding()
	}
	for _, c := range s.caches {
		if c.place == cpuCache {
			n += c.Outstanding()
		}
	}
	return n
}
