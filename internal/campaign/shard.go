package campaign

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"crossingguard/internal/accel"
	"crossingguard/internal/config"
	"crossingguard/internal/consistency"
	"crossingguard/internal/faults"
	"crossingguard/internal/fuzz"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
	"crossingguard/internal/perm"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
	"crossingguard/internal/tester"
)

// Kind selects what a shard runs.
type Kind int

const (
	// KindStress is one (config, seed) cell of the §4.1 random protocol
	// stress test (E3).
	KindStress Kind = iota
	// KindFuzz is one (config, variant, seed) cell of the §4.2 guard
	// fuzz test (E4): an Attacker bombards the guard while the CPUs run
	// the random workload.
	KindFuzz
	// KindChaos is one (config, adversary model, fault plan, seed) cell
	// of the chaos campaign: a Byzantine accelerator model behind a
	// deterministically faulty fabric, against a guard armed with recall
	// retries and quarantine. The assertion is graceful degradation: the
	// host never hangs, crashes, or reads corrupted data.
	KindChaos
)

var kindNames = [...]string{KindStress: "stress", KindFuzz: "fuzz", KindChaos: "chaos"}

// String returns the spec-string form of the kind ("stress" or "fuzz").
func (k Kind) String() string { return kindNames[k] }

// ShardSpec describes one unit of campaign work: a full simulated
// machine plus the test to run on it. Everything except Custom is plain
// data, so a failed shard can be re-created exactly from its printed
// repro string.
type ShardSpec struct {
	// Index is the shard's dispatch position; the runner assigns it and
	// aggregates in Index order.
	Index int

	Kind Kind
	Host config.HostKind
	Org  config.Org
	// Seed is the logical seed; per-component seeds (build, tester,
	// attacker) are derived from it with the same multipliers the
	// original serial drivers used, so results match run-for-run.
	Seed int64

	CPUs  int
	Cores int

	// Accels is the number of accelerator devices, each behind its own
	// guard (0 or 1 = the historical single-accelerator machine). Fuzz
	// and chaos shards attach one attacker/adversary per device.
	Accels int

	// Stores is StoresPerLoc for stress shards.
	Stores int

	// Messages is the attack volume for fuzz shards.
	Messages int
	// Confined installs a deny-all permission table (fuzz "confined"
	// variant: the guard must protect data, not just liveness).
	Confined bool
	// CheckValues keeps load-value verification on even though the
	// attacker shares the CPUs' pages — the deliberately failing
	// "buggy accelerator under stress" demonstration.
	CheckValues bool

	// Spans enables causal span tracing on every guard (span-begin/
	// -phase/-end trace events plus per-phase latency histograms in the
	// shard's metrics registry). Only meaningful with tracing or metrics
	// export; default-off so span-free shards stay byte-identical.
	Spans bool

	// Consistency enables per-core observation recording plus the
	// offline invariant check after the run. The check is applied only
	// where inline value verification would be on too (stress always;
	// fuzz/chaos when Confined or CheckValues): an unconfined adversary
	// may legitimately write garbage to shared lines, and the checker —
	// which sees only sequencer-level observations — cannot tell that
	// sanctioned corruption from a guard bug.
	Consistency bool

	// RecoverAfter arms quarantine recovery: nonzero makes a quarantined
	// guard drain, reset, and readmit its device after this many ticks
	// (doubled per prior readmission, three readmissions at most). 0 keeps
	// quarantine terminal — the historical behavior.
	RecoverAfter sim.Time

	// Model names the adversarial accelerator for chaos shards (one of
	// accel.AllAdvModels' spec names).
	Model string
	// Faults is the deterministic fabric fault plan for chaos shards
	// (zero value = clean fabric); embedded in repro strings so failure
	// artifacts replay the exact fault schedule.
	Faults faults.Plan

	// Custom, when set, replaces the machine entirely: the shard runs
	// tester.Run on whatever system it returns. Used by tests to bound
	// the runner's failure paths (deadlock injection); not expressible
	// in a repro string.
	Custom func(trace bool) (tester.System, tester.Config) `json:"-"`
}

// Name renders the configuration id used in report tables.
func (s ShardSpec) Name() string {
	if s.Custom != nil {
		return "custom"
	}
	name := fmt.Sprintf("%v/%v", s.Host, s.Org)
	if s.Kind == KindChaos {
		name = fmt.Sprintf("%s/%s", name, s.Model)
	}
	if s.Accels > 1 {
		name = fmt.Sprintf("%s/a%d", name, s.Accels)
	}
	return name
}

// ShardResult is everything one shard produced.
type ShardResult struct {
	Spec       ShardSpec
	Res        tester.Result
	Sent       uint64 // fuzz/chaos: attack messages injected
	Injected   uint64 // chaos: fabric faults injected
	Violations uint64 // protocol violations detected and classified
	// Quarantined reports that a guard was fencing its accelerator at end
	// of run (chaos shards; graceful degradation, not a failure). A guard
	// that recovered and stayed healthy does not count.
	Quarantined bool
	// Recoveries counts guard reintegrations (drain + device reset +
	// readmission) across the shard's guards; nonzero only when
	// RecoverAfter armed recovery.
	Recoveries uint64
	ByCode     map[string]uint64
	// Unexpected lists, by controller class, the undeclared (state, event)
	// pairs the shard's controllers visited (nil when there are none). The
	// visit counts go straight into the campaign's coverage (Report.Cov).
	Unexpected map[string][]string
	Err        error
	TraceDump  string
	// Obs is the shard machine's metrics registry (nil for custom
	// shards); the aggregator merges shard registries in index order.
	Obs *obs.Registry
	// Events is the shard's trace-ring tail (last N structured events),
	// captured when tracing was enabled; the aggregator renders them as
	// JSONL in shard-index order.
	Events []obs.Event
	// TraceTail is the trace-ring capacity the shard ran with (0 when
	// tracing was off); failure artifacts record it so a truncated trace
	// tail is never mistaken for the full event stream.
	TraceTail int
	// Recs is the merged observation stream (Spec.Consistency shards
	// only), in canonical order; the aggregator exports it via the -obs
	// flag in shard-index order.
	Recs []consistency.Rec
	// ObsDump is the rendered observation tail, captured alongside
	// TraceDump when a recorded shard fails.
	ObsDump string
}

// hostView narrows an attacked system for the stress tester: drive the
// CPUs only and validate only host-side health (the accelerator is an
// attacker; its "health" is not the guard's problem).
type hostView struct{ *config.System }

func (h hostView) Sequencers() []*seq.Sequencer { return h.CPUSeqs }
func (h hostView) Outstanding() int             { return h.HostOutstanding() }
func (h hostView) Audit() error                 { return h.AuditHostOnly() }

// attackBase is where the lines fuzz and chaos shards fight over start.
const attackBase = mem.Addr(0x10000)

// devicePools[d] is the small address pool device d's attacker aims at:
// for device 0 the 8 lines the CPUs stress, maximizing interference, and
// for each further device 8 lines of its own, 0x8000 bytes on. They are
// made once and only read, by every shard on every worker.
var devicePools = func() (pools [config.MaxAccels][]mem.Addr) {
	for d := range pools {
		pools[d] = make([]mem.Addr, 8)
		for i := range pools[d] {
			pools[d][i] = attackBase + mem.Addr(d*0x8000+i*mem.BlockBytes)
		}
	}
	return pools
}()

// DefaultTraceTail is the trace-ring capacity (events kept per shard)
// when the caller does not override it (Options.TraceTail, -tracetail).
const DefaultTraceTail = 4000

// machine is a shard's built machine and what the runner needs to drive
// and judge it.
type machine struct {
	sys *config.System
	// drive is what the tester runs: the whole machine, or hostView when
	// an attacker stands in for the accelerator.
	drive tester.System
	cfg   tester.Config
}

// newMachine builds the machine a shard runs on. Per-component seeds
// (build, tester, attacker) are derived from the shard seed with fixed
// multipliers, so a spec replays run-for-run.
func newMachine(spec ShardSpec) (*machine, error) {
	if spec.Kind == KindStress {
		sys := config.Build(config.Spec{Host: spec.Host, Org: spec.Org,
			CPUs: spec.CPUs, AccelCores: spec.Cores, Accels: spec.Accels,
			Seed: spec.Seed * 97, Small: true, Spans: spec.Spans,
			Consistency: newRecorder(spec)})
		cfg := tester.DefaultConfig(spec.Seed * 131)
		cfg.StoresPerLoc = spec.Stores
		cfg.Deadline = 400_000_000
		return &machine{sys: sys, drive: sys, cfg: cfg}, nil
	}
	m := &machine{}
	var perms *perm.Table
	if spec.Confined {
		perms = takeDenyAll() // deny everything: the attacker owns no pages
	}
	var testerSeed int64
	switch spec.Kind {
	case KindFuzz:
		m.sys = config.Build(config.Spec{Host: spec.Host, Org: spec.Org,
			CPUs: spec.CPUs, AccelCores: 1, Accels: spec.Accels,
			Seed: spec.Seed * 61, Small: true, Spans: spec.Spans,
			Timeout: 5000, Perms: perms, Consistency: newRecorder(spec),
			CustomAccel: func(s *config.System, slot *config.CustomSlot) {
				// One attacker per device. Device 0 keeps the historical seed
				// formula exactly; further devices perturb it so each attacker
				// draws an independent — but replayable — message stream.
				seed := spec.Seed * 67
				if d := config.DeviceOf(slot.AccelID); d > 0 {
					seed += int64(d) * 1009
				}
				att := config.SlotDevice[fuzz.Attacker](slot)
				att.Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, seed, devicePools[0])
				att.Policy = fuzz.InvRandom
				att.IncludeHostTypes = true
				att.NilDataProb = 0.1
			}})
		for _, slot := range m.sys.CustomSlots() {
			slot.Dev.(*fuzz.Attacker).Rampage(spec.Messages, 40)
		}
		testerSeed = spec.Seed * 71
	case KindChaos:
		// A Byzantine accelerator (spec.Model) behind a deterministically
		// faulty fabric (spec.Faults), against a guard configured for
		// graceful degradation: short 2c deadline, bounded Invalidate
		// retries, quarantine.
		model, err := accel.ParseAdvModel(spec.Model)
		if err != nil {
			return nil, err
		}
		plan := spec.Faults
		m.sys = config.Build(config.Spec{Host: spec.Host, Org: spec.Org,
			CPUs: spec.CPUs, AccelCores: 1, Accels: spec.Accels,
			Seed: spec.Seed * 41, Small: true, Spans: spec.Spans,
			Timeout: 2000, RecallRetries: 2, QuarantineAfter: 25,
			RecoverAfter: spec.RecoverAfter, Perms: perms, Faults: &plan,
			Consistency: newRecorder(spec),
			CustomAccel: func(s *config.System, slot *config.CustomSlot) {
				// One adversary per device. Device 0 keeps the historical seed
				// and pool exactly; further devices get a device-private pool
				// plus the shared lines as a victim pool, so they fight the
				// other accelerator (and the CPUs) for ownership. The
				// adversary's Reset rejoins the epoch protocol after a device
				// reset.
				cfg := accel.AdvConfig{
					Model: model, Seed: spec.Seed * 43, Pool: devicePools[0],
					Budget: spec.Messages, Gap: 20, Deadline: 2000,
				}
				if d := config.DeviceOf(slot.AccelID); d > 0 {
					cfg.Seed += int64(d) * 1013
					cfg.Pool = devicePools[d]
					cfg.VictimPool = devicePools[0]
				}
				config.SlotDevice[accel.Adversary](slot).Init(slot.AccelID, slot.XGID, s.Eng, s.Fab, cfg)
			}})
		testerSeed = spec.Seed * 47
	default:
		return nil, fmt.Errorf("campaign: unknown shard kind %d", spec.Kind)
	}
	m.drive = hostView{m.sys}
	// The CPUs stress the attacked lines. Value checks stay on only where
	// the attacker cannot write those lines (confined) or where the spec
	// asks for the deliberately failing demonstration (checked=1).
	m.cfg = tester.DefaultConfig(testerSeed)
	m.cfg.StoresPerLoc = 25
	m.cfg.BaseAddr = attackBase
	m.cfg.Deadline = 200_000_000
	m.cfg.SkipValueChecks = !spec.Confined && !spec.CheckValues
	return m, nil
}

// denyAll holds the deny-all permission tables of confined shards whose
// machines closed, for the next confined shard to reset in place, warm map
// kept. It holds no more tables than confined shards ran at once.
var denyAll struct {
	sync.Mutex
	free []*perm.Table
}

// takeDenyAll returns a table that denies every page.
func takeDenyAll() *perm.Table {
	denyAll.Lock()
	defer denyAll.Unlock()
	n := len(denyAll.free)
	if n == 0 {
		return perm.NewTable()
	}
	t := denyAll.free[n-1]
	denyAll.free[n-1] = nil
	denyAll.free = denyAll.free[:n-1]
	t.Reset()
	return t
}

// putDenyAll gives back the table of a confined shard whose machine closed.
func putDenyAll(t *perm.Table) {
	denyAll.Lock()
	defer denyAll.Unlock()
	denyAll.free = append(denyAll.free, t)
}

// RunShard executes one shard to completion on the calling goroutine
// with the default trace-ring capacity. The shard builds a private
// machine (engine, fabric, RNGs, memory, permission table) and never
// touches state outside it. Its controllers' coverage counts are not kept:
// Run merges them into the report's.
func RunShard(spec ShardSpec, trace bool) ShardResult {
	return RunShardTrace(spec, trace, DefaultTraceTail)
}

// RunShardTrace is RunShard with an explicit trace-ring capacity: when
// tracing, the shard keeps its last tail events (DefaultTraceTail when
// tail is not positive).
func RunShardTrace(spec ShardSpec, trace bool, tail int) ShardResult {
	return runShard(spec, trace, tail, nil)
}

// runShard is RunShardTrace merging the machine's coverage, when the shard
// passed, into live's (nil: nowhere) before the machine closes.
func runShard(spec ShardSpec, trace bool, tail int, live *Telemetry) ShardResult {
	res := ShardResult{Spec: spec, ByCode: map[string]uint64{}}
	if tail <= 0 {
		tail = DefaultTraceTail
	}
	if trace {
		res.TraceTail = tail
	}
	if spec.Custom != nil {
		sys, cfg := spec.Custom(trace)
		res.Res, res.Err = tester.Run(sys, cfg)
		return res
	}
	m, err := newMachine(spec)
	if err != nil {
		res.Err = err
		return res
	}
	sys := m.sys
	// Close parks the machine for the next shard of its shape, so what the
	// result keeps is copied out of it (counts, error text, metrics,
	// coverage, observations) or was never its (the trace ring). A confined
	// shard's table goes back once the machine that reads it has closed.
	if spec.Confined {
		defer putDenyAll(sys.Spec.Perms)
	}
	defer sys.Close()
	var ring *obs.Ring
	if trace {
		ring = obs.NewRing(tail)
		sys.Fab.Bus = obs.NewBus(ring)
	}
	res.Res, res.Err = tester.Run(m.drive, m.cfg)
	res.Obs = sys.Obs.Clone()
	res.Sent = sent(sys)
	if sys.Faults != nil {
		res.Injected = sys.Faults.Injected
	}
	for _, g := range sys.Guards {
		if g.Quarantined {
			res.Quarantined = true
		}
		res.Recoveries += uint64(g.Recoveries())
	}
	res.Violations = uint64(sys.Log.Count())
	for code, n := range sys.Log.ByCode {
		res.ByCode[code] += n
	}
	// With no attacker every logged protocol error is a failure; with one,
	// they are the violations the guard caught and classified.
	if _, attacked := m.drive.(hostView); !attacked && res.Err == nil && sys.Log.Count() != 0 {
		res.Err = fmt.Errorf("protocol errors reported: %v", sys.Log.Errors[0])
	}
	// The offline check applies where inline value checks do (see
	// ShardSpec.Consistency).
	finishConsistency(&res, sys.Consistency, !m.cfg.SkipValueChecks)
	if res.Err == nil {
		res.Unexpected = live.mergeCoverage(sys)
	}
	if ring != nil {
		res.Events = ring.Events()
		if res.Err != nil {
			res.TraceDump = ring.Dump()
		}
	}
	return res
}

// sent counts the messages sys's attackers and adversaries injected.
func sent(sys *config.System) (n uint64) {
	for _, slot := range sys.CustomSlots() {
		switch d := slot.Dev.(type) {
		case *fuzz.Attacker:
			n += d.Sent
		case *accel.Adversary:
			n += d.Sent
		}
	}
	return n
}

// newRecorder returns the observation recorder for a shard, nil unless
// the spec asks for consistency recording.
func newRecorder(spec ShardSpec) *consistency.Recorder {
	if !spec.Consistency {
		return nil
	}
	return consistency.NewRecorder()
}

// finishConsistency merges a recorded shard's observation streams, runs
// the offline checker (when checked — see ShardSpec.Consistency for the
// gating rule), and captures the observation tail next to the trace
// tail when the shard failed. Workers is pinned to 1: shards already
// run one per goroutine across the campaign pool.
func finishConsistency(res *ShardResult, rec *consistency.Recorder, checked bool) {
	if rec == nil {
		return
	}
	res.Recs = rec.Merged()
	if res.Err == nil && checked {
		if v := consistency.Check(res.Recs, consistency.Options{Workers: 1}); !v.OK() {
			res.Err = fmt.Errorf("offline consistency check: %v", v.First())
		}
	}
	if res.Err != nil {
		res.ObsDump = consistency.Tail(res.Recs, 40)
	}
}

// --- repro string encoding ---

// FormatSpec renders the shard as a parseable one-line spec:
//
//	kind=stress host=hammer org=xg-full/1L seed=3 cpus=2 cores=2 stores=100
//
// ParseSpec is its inverse. Custom shards are not representable.
func FormatSpec(s ShardSpec) string {
	parts := []string{
		"kind=" + s.Kind.String(),
		"host=" + s.Host.String(),
		"org=" + s.Org.String(),
		"seed=" + strconv.FormatInt(s.Seed, 10),
		"cpus=" + strconv.Itoa(s.CPUs),
	}
	if s.Accels > 1 {
		parts = append(parts, "accels="+strconv.Itoa(s.Accels))
	}
	// The recovery key is emitted only when set, so pre-recovery repro
	// strings render byte-identically.
	if s.RecoverAfter > 0 {
		parts = append(parts, "recover="+strconv.FormatInt(int64(s.RecoverAfter), 10))
	}
	switch s.Kind {
	case KindStress:
		parts = append(parts, "cores="+strconv.Itoa(s.Cores), "stores="+strconv.Itoa(s.Stores))
	case KindFuzz:
		parts = append(parts, "messages="+strconv.Itoa(s.Messages))
		if s.Confined {
			parts = append(parts, "confined=1")
		}
		if s.CheckValues {
			parts = append(parts, "checked=1")
		}
	case KindChaos:
		parts = append(parts, "model="+s.Model, "messages="+strconv.Itoa(s.Messages),
			"faults="+s.Faults.Spec())
		if s.Confined {
			parts = append(parts, "confined=1")
		}
		if s.CheckValues {
			parts = append(parts, "checked=1")
		}
	}
	if s.Consistency {
		parts = append(parts, "consistency=1")
	}
	// Emitted only when set, so span-free repro strings render
	// byte-identically to the pre-span grammar.
	if s.Spans {
		parts = append(parts, "spans=1")
	}
	return strings.Join(parts, " ")
}

// ReproCommand renders the one-line reproduction command printed with
// failure artifacts.
func (s ShardSpec) ReproCommand() string {
	if s.Custom != nil {
		return "(custom shard: not reproducible from the command line)"
	}
	return fmt.Sprintf("go run ./cmd/xgcampaign -repro '%s'", FormatSpec(s))
}

// ParseSpec parses a FormatSpec string back into a runnable shard.
func ParseSpec(text string) (ShardSpec, error) {
	spec := ShardSpec{CPUs: 2, Cores: 2, Stores: 100, Messages: 3000}
	seen := map[string]bool{}
	for _, field := range strings.Fields(text) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return spec, fmt.Errorf("campaign: bad spec field %q (want key=value)", field)
		}
		if seen[k] {
			return spec, fmt.Errorf("campaign: duplicate spec field %q", k)
		}
		seen[k] = true
		switch k {
		case "kind":
			switch v {
			case "stress":
				spec.Kind = KindStress
			case "fuzz":
				spec.Kind = KindFuzz
			case "chaos":
				spec.Kind = KindChaos
			default:
				return spec, fmt.Errorf("campaign: unknown kind %q", v)
			}
		case "host":
			switch v {
			case "hammer":
				spec.Host = config.HostHammer
			case "mesi":
				spec.Host = config.HostMESI
			default:
				return spec, fmt.Errorf("campaign: unknown host %q", v)
			}
		case "org":
			org, err := parseOrg(v)
			if err != nil {
				return spec, err
			}
			spec.Org = org
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("campaign: bad seed %q", v)
			}
			spec.Seed = n
		case "cpus", "cores", "stores", "messages", "accels", "shards":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return spec, fmt.Errorf("campaign: bad %s %q", k, v)
			}
			switch k {
			case "cpus":
				spec.CPUs = n
			case "cores":
				spec.Cores = n
			case "stores":
				spec.Stores = n
			case "messages":
				spec.Messages = n
			case "accels":
				spec.Accels = n
			case "shards":
				// The guard's address-sharding knob is gone; it never
				// changed timing, so old repro strings replay identically.
			}
		case "recover":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return spec, fmt.Errorf("campaign: bad %s %q", k, v)
			}
			spec.RecoverAfter = sim.Time(n)
		case "maxrec", "backoff", "backoffcap":
			// Unlike shards=, these changed timing, so a spec carrying one
			// cannot replay: recovery now always doubles its delay, three
			// readmissions at most.
			return spec, fmt.Errorf("campaign: retired spec field %q (recovery backoff is fixed)", k)
		case "confined":
			spec.Confined = v == "1" || v == "true"
		case "checked":
			spec.CheckValues = v == "1" || v == "true"
		case "consistency":
			spec.Consistency = v == "1" || v == "true"
		case "spans":
			spec.Spans = v == "1" || v == "true"
		case "model":
			if _, err := accel.ParseAdvModel(v); err != nil {
				return spec, err
			}
			spec.Model = v
		case "faults":
			plan, err := faults.ParsePlan(v)
			if err != nil {
				return spec, err
			}
			spec.Faults = plan
		default:
			return spec, fmt.Errorf("campaign: unknown spec field %q", k)
		}
	}
	if !seen["kind"] || !seen["host"] || !seen["org"] || !seen["seed"] {
		return spec, fmt.Errorf("campaign: spec needs at least kind, host, org, seed (got %q)", text)
	}
	if spec.Kind == KindChaos && spec.Model == "" {
		return spec, fmt.Errorf("campaign: chaos spec needs model= (got %q)", text)
	}
	if spec.Kind == KindStress && spec.Org == config.OrgXGWeak && spec.Cores > 1 {
		// The tester checks every load against the last store to its
		// location, wherever made; the weak model shows a core a sibling's
		// store only after flushes, so such a shard fails by design.
		return spec, fmt.Errorf("campaign: stress on %v needs cores=1: its cores see each other's stores only after a flush (got %q)",
			spec.Org, text)
	}
	if err := config.CheckSize(spec.CPUs, spec.Cores, spec.Accels); err != nil {
		return spec, fmt.Errorf("campaign: %w", err)
	}
	return spec, nil
}

func parseOrg(name string) (config.Org, error) {
	all := append([]config.Org{}, config.AllOrgs...)
	all = append(all, config.OrgXGWeak)
	for _, o := range all {
		if o.String() == name {
			return o, nil
		}
	}
	known := make([]string, len(all))
	for i, o := range all {
		known[i] = o.String()
	}
	sort.Strings(known)
	return 0, fmt.Errorf("campaign: unknown org %q (known: %s)", name, strings.Join(known, ", "))
}
