package main

import (
	"fmt"
	"math/rand"
	"time"

	"crossingguard/internal/campaign"
	"crossingguard/internal/config"
	"crossingguard/internal/consistency"
	"crossingguard/internal/tester"
	"crossingguard/internal/workload"
)

// workloadDef is one benchmark workload. An op is one shard: build a
// machine, run it to quiescence, audit it. A batch is the shard list the
// seed generates, replayed identically by every batch of a run.
type workloadDef struct {
	Name string
	Why  string
	// machines generates the single-machine shard list; nil for
	// campaign_adv, whose machines are built inside campaign.RunShard.
	machines func(seed int64) []machineShard
	// overheadRows adds the spans-on and recorded batches to the traced
	// run (stress_xg only: the rows need a guard and racing stores).
	overheadRows bool
}

var workloads = []workloadDef{
	{Name: "stress_xg", machines: stressXG, overheadRows: true,
		Why: "random tester on the 8 guarded configurations: 8 hot lines force recalls, deferral and Get/Put races, so the guard, host shims and coverage do most of the work"},
	{Name: "stress_base", machines: stressBase,
		Why: "the same tester and seeds on the 4 guard-free configurations: bypasses the guard, loads kernel, fabric and host protocols"},
	{Name: "kernels_e5", machines: kernelsE5,
		Why: "five GPGPU-like kernels on full-size caches: long low-contention Get/Put streams load accel, seq, perm and the guard's grant path"},
	{Name: "campaign_adv",
		Why: "fuzz+chaos+recovery+multi-device sweeps through campaign.Run on 2 workers: guard rejection path, fault injection, 1-16 devices, runner merge path"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Seeds per configuration in one stress batch. More seeds per batch average
// out the seed-to-seed difference in how hard a shard is, which is what
// keeps the cross-seed spread of the host-time metrics inside their bounds.
// The kernels draw one seed per cell: the seed only moves fabric jitter
// there, and small batches give the run more replays of each shard.
const stressSeedsPerConfig = 24

var (
	hosts      = []config.HostKind{config.HostHammer, config.HostMESI}
	guardedOrg = []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L, config.OrgXGFull2L, config.OrgXGTxn2L}
	baseOrg    = []config.Org{config.OrgAccelSide, config.OrgHostSide}
)

// shardSeeds derives n shard seeds from the benchmark seed. Small positive
// values: campaign shards multiply the seed by per-component constants.
func shardSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + rng.Int63n(1_000_000)
	}
	return out
}

// machineShard is one single-machine op: a spec plus the driver to run on
// it (the random tester or a kernel).
type machineShard struct {
	Config string // configuration name, e.g. "hammer/xg-txn/1L"
	Cell   string // report row: the configuration, plus the kernel on kernels_e5
	Spec   config.Spec
	Tester *tester.Config
	Kernel *workload.Config
}

func stressShards(seed int64, orgs []config.Org) []machineShard {
	var out []machineShard
	for _, host := range hosts {
		for _, org := range orgs {
			for _, s := range shardSeeds(seed, stressSeedsPerConfig) {
				spec := config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 2, Seed: s, Small: true}
				cfg := tester.DefaultConfig(s*37 + 5)
				cfg.StoresPerLoc = 20
				out = append(out, machineShard{Config: spec.Name(), Cell: spec.Name(), Spec: spec, Tester: &cfg})
			}
		}
	}
	return out
}

func stressXG(seed int64) []machineShard   { return stressShards(seed, guardedOrg) }
func stressBase(seed int64) []machineShard { return stressShards(seed, baseOrg) }

// kernelConfigs are the four machines kernels_e5 runs on: one guard of
// each kind and depth per host, plus both guard-free organizations.
var kernelConfigs = []struct {
	Host config.HostKind
	Org  config.Org
}{
	{config.HostMESI, config.OrgXGFull1L},
	{config.HostHammer, config.OrgXGTxn2L},
	{config.HostMESI, config.OrgAccelSide},
	{config.HostHammer, config.OrgHostSide},
}

func kernelsE5(seed int64) []machineShard {
	var out []machineShard
	seeds := shardSeeds(seed, len(kernelConfigs)*len(workload.AllKinds))
	for _, c := range kernelConfigs {
		for _, kind := range workload.AllKinds {
			cfg := workload.DefaultConfig(kind) // 2000 accesses/core, 32 KiB footprint vs 16 KiB accel L1
			spec := config.Spec{Host: c.Host, Org: c.Org, CPUs: 2, AccelCores: 2, Seed: seeds[len(out)],
				Perms: workload.Perms(cfg)}
			out = append(out, machineShard{Config: spec.Name(),
				Cell: fmt.Sprintf("%s/%v", spec.Name(), kind), Spec: spec, Kernel: &cfg})
		}
	}
	return out
}

// runMode selects the instrumentation a machine shard runs under.
type runMode struct {
	// attach, when set, runs after config.Build and before the driver:
	// the traced run installs its sink on System.Fab.Bus here.
	attach func(sh *machineShard, sys *config.System)
	spans  bool // Spec.Spans
	record bool // Spec.Consistency + offline check after the run
}

// shardRun is what one machine shard produced.
type shardRun struct {
	build, run  time.Duration
	buildAllocs uint64
	allocs      heapCount // build + run
	memops      uint64
	endTick     uint64
	cycles      uint64 // kernels only: accelerator makespan
	// recorded runs only: observation count and offline check time
	recs  int
	check time.Duration
	err   error
	sys   *config.System
}

// runMachine builds and runs one shard. Only Build and the driver are
// inside the timed and allocation-counted regions; the consistency check
// and everything the caller does with sys afterwards are outside.
func runMachine(sh *machineShard, mode runMode) shardRun {
	var out shardRun
	spec := sh.Spec
	spec.Spans = mode.spans
	if mode.record {
		spec.Consistency = consistency.NewRecorder()
	}
	a0 := readHeap()
	t0 := time.Now()
	sys := config.Build(spec)
	out.build = time.Since(t0)
	built := readHeap().sub(a0)
	out.buildAllocs = built.Objects
	if mode.attach != nil {
		mode.attach(sh, sys)
	}
	a1 := readHeap()
	t1 := time.Now()
	switch {
	case sh.Tester != nil:
		res, err := tester.Run(sys, *sh.Tester)
		out.run = time.Since(t1)
		out.memops, out.endTick, out.err = res.Stores+res.Loads, uint64(res.EndTime), err
	default:
		res, err := workload.Run(sys, *sh.Kernel)
		if err == nil {
			err = sys.Audit() // tester.Run audits itself; workload.Run leaves it to the caller
		}
		out.run = time.Since(t1)
		out.memops, out.endTick, out.err = res.AccelAccesses+res.CPUAccesses, uint64(sys.Eng.Now()), err
		out.cycles = uint64(res.Cycles)
		if err == nil && res.Errors != 0 {
			out.err = fmt.Errorf("workload: %d protocol errors logged", res.Errors)
		}
	}
	out.allocs = readHeap().sub(a1).add(built)
	if out.err == nil && sh.Tester != nil && sys.Log.Count() != 0 {
		out.err = fmt.Errorf("protocol errors reported: %v", sys.Log.Errors[0])
	}
	if mode.record && out.err == nil {
		recs := sys.Consistency.Merged()
		c0 := time.Now()
		v := consistency.Check(recs, consistency.Options{Workers: 1})
		out.check, out.recs = time.Since(c0), len(recs)
		if !v.OK() {
			out.err = fmt.Errorf("offline consistency check: %v", v.First())
		}
	}
	out.sys = sys
	return out
}

// campaignShards is campaign_adv's batch: the four adversarial sweeps for
// one seed, re-seeded from the benchmark seed (the sweep builders number
// seeds from 1; fault plans carry the shard seed as an offset).
func campaignShards(seed int64) (specs []campaign.ShardSpec, kinds []string) {
	const cpus, messages, stores = 2, 2000, 20
	s := shardSeeds(seed, 1)[0]
	add := func(kind string, sweep []campaign.ShardSpec) {
		for _, sp := range sweep {
			sp.Seed = s
			if sp.Faults.Active() {
				sp.Faults.Seed += s - 1
			}
			specs = append(specs, sp)
			kinds = append(kinds, kind)
		}
	}
	add("fuzz", campaign.FuzzSweep(1, cpus, messages))
	add("chaos", campaign.ChaosSweep(1, cpus, messages))
	add("recovery", campaign.RecoverySweep(1, cpus, messages))
	add("multi", campaign.MultiAccelSweep(1, cpus, stores, messages))
	return specs, kinds
}

// campaignWorkers is campaign_adv's pool size: the one workload with more
// than one goroutine, sized to the 2-core box the bounds were fixed on.
const campaignWorkers = 2
