package config_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crossingguard/internal/accel"
	"crossingguard/internal/campaign"
	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/explore"
	"crossingguard/internal/faults"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
	"crossingguard/internal/workload"
	"crossingguard/internal/xlate"
)

// The reset contract: a machine reset after an unrelated run of its shape
// and a machine just built run a spec identically. Each case runs once on
// a new machine (parking off) and once on a parked machine that first ran
// something else, and everything the runs decide must match: end tick,
// events run, the trace, the metrics registry, coverage, the error log,
// traffic per channel, the audit's verdict, memory and pool balances.
// The sample covers every organization on both hosts under the random
// tester, the GPGPU kernels, every explore scenario, fuzz, chaos,
// recovery and multi-device shards, over two seeds; the unrelated run is
// of another seed and, where the shape allows, another kind of work.
func TestResetMachineRunsAsBuilt(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the lifetime check, on under -race, parks nothing")
	}
	defer config.SetParking(config.SetParking(true))
	for _, c := range resetCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			config.SetParking(false)
			want := c.run()
			config.SetParking(true)
			c.unrelated()
			hits := config.ParkHits()
			got := c.run()
			if config.ParkHits() == hits {
				t.Fatal("the run did not take the parked machine")
			}
			if got != want {
				t.Fatalf("a reset machine ran differently from a new one:\n%s", firstDiff(want, got))
			}
		})
	}
}

// TestCustomAccelResetInPlace is the reset contract for custom
// accelerators: a shard on a parked machine, whose slot's device another
// run of the same device type left there and the shard's builder
// reconfigured in place, decides what a shard on a new machine decides.
// It covers every adversary model and the fuzz attacker.
func TestCustomAccelResetInPlace(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the lifetime check, on under -race, parks nothing")
	}
	defer config.SetParking(config.SetParking(true))
	var specs []campaign.ShardSpec
	for m := accel.AdvModel(0); !strings.HasPrefix(m.String(), "AdvModel("); m++ {
		specs = append(specs, campaign.ShardSpec{Kind: campaign.KindChaos, Host: config.HostMESI,
			Org: config.OrgXGTxn1L, Seed: int64(m) + 1, CPUs: 2, Messages: 300, Model: m.String(),
			Faults: chaotic(), RecoverAfter: 3000})
	}
	specs = append(specs, campaign.ShardSpec{Kind: campaign.KindFuzz, Host: config.HostHammer,
		Org: config.OrgXGFull1L, Seed: 5, CPUs: 2, Messages: 300})
	for _, spec := range specs {
		spec := spec
		t.Run(fmt.Sprintf("%v/%s", spec.Kind, spec.Model), func(t *testing.T) {
			config.SetParking(false)
			want := campaign.RunShard(spec, false)
			config.SetParking(true)
			other := withSeed(spec, spec.Seed+70)
			if spec.Kind == campaign.KindChaos {
				// The stale writer leaves lines held, transactions open and
				// stale data in its adversary's maps for the reset to clear.
				other.Model = accel.AdvStaleWriter.String()
				if spec.Model == other.Model {
					other.Model = accel.AdvSlowpoke.String()
				}
			}
			campaign.RunShard(other, false)
			hits := config.ParkHits()
			got := campaign.RunShard(spec, false)
			if config.ParkHits() == hits {
				t.Fatal("the shard did not take the parked machine")
			}
			if want.Err != nil || got.Err != nil {
				t.Fatalf("shard failed: new %v, reset %v", want.Err, got.Err)
			}
			if got.Res != want.Res || got.Sent != want.Sent || got.Injected != want.Injected ||
				got.Violations != want.Violations {
				t.Fatalf("reset machine: res %+v sent %d injected %d violations %d; new: %+v %d %d %d",
					got.Res, got.Sent, got.Injected, got.Violations, want.Res, want.Sent, want.Injected, want.Violations)
			}
			if !reflect.DeepEqual(got.ByCode, want.ByCode) {
				t.Fatalf("reset machine's codes %v, new machine's %v", got.ByCode, want.ByCode)
			}
			if g, w := got.Obs.Snapshot(), want.Obs.Snapshot(); !reflect.DeepEqual(g, w) {
				t.Fatalf("reset machine's metrics differ from a new machine's:\n%+v\n%+v", g, w)
			}
		})
	}
}

// resetCase is one run and the unrelated run of its shape that precedes
// it on the parked machine. run returns everything the run decided.
type resetCase struct {
	name      string
	run       func() string
	unrelated func()
}

func resetCases() []resetCase {
	var cases []resetCase
	hosts := []config.HostKind{config.HostHammer, config.HostMESI}
	allOrgs := append(append([]config.Org{}, config.AllOrgs...), config.OrgXGWeak)
	xgOrgs := []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L, config.OrgXGFull2L, config.OrgXGTxn2L}
	shard := func(name string, spec, other campaign.ShardSpec) resetCase {
		return resetCase{name: name, run: func() string { return shardSig(spec) },
			unrelated: func() { campaign.RunShardTrace(other, false, 0) }}
	}
	for _, host := range hosts {
		for _, org := range allOrgs {
			for _, seed := range []int64{1, 2} {
				spec := campaign.ShardSpec{Kind: campaign.KindStress, Host: host, Org: org, Seed: seed,
					CPUs: 2, Cores: 2, Stores: 40, Consistency: true}
				if org == config.OrgXGWeak {
					spec.Cores = 1 // more weak cores fail the tester by design
				}
				other := spec
				other.Seed, other.Stores = seed+100, 15
				cases = append(cases, shard(fmt.Sprintf("tester/%v/%v/seed%d", host, org, seed), spec, other))
			}
		}
		for _, org := range config.AllOrgs {
			spec := config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 2, Seed: 5}
			kinds := []workload.Kind{workload.Streaming, workload.Graph}
			cases = append(cases, resetCase{name: fmt.Sprintf("kernel/%v/%v", host, org),
				run: func() string { return kernelSig(spec, kinds[0]) },
				unrelated: func() {
					other := spec
					other.Seed = 9
					kernelSig(other, kinds[1])
				}})
		}
		for _, org := range xgOrgs {
			for _, seed := range []int64{3, 4} {
				fuzzSpec := campaign.ShardSpec{Kind: campaign.KindFuzz, Host: host, Org: org, Seed: seed,
					CPUs: 2, Messages: 300, Consistency: true}
				chaosSpec := campaign.ShardSpec{Kind: campaign.KindChaos, Host: host, Org: org, Seed: seed,
					CPUs: 2, Messages: 200, Model: accel.AdvStaleWriter.String(), Confined: true,
					Consistency: true}
				// Without faults a chaos machine has a fuzz machine's shape:
				// each runs after the other's attacker.
				cases = append(cases,
					shard(fmt.Sprintf("fuzz/%v/%v/seed%d", host, org, seed), fuzzSpec, withSeed(chaosSpec, seed+50)),
					shard(fmt.Sprintf("chaos-clean/%v/%v/seed%d", host, org, seed), chaosSpec, withSeed(fuzzSpec, seed+50)))
			}
		}
		for i, model := range accel.AllAdvModels {
			spec := campaign.ShardSpec{Kind: campaign.KindChaos, Host: host, Org: xgOrgs[i%len(xgOrgs)],
				Seed: int64(i + 1), CPUs: 2, Messages: 300, Model: model.String(), Faults: chaotic()}
			other := withSeed(spec, spec.Seed+70)
			other.Model = accel.AllAdvModels[(i+1)%len(accel.AllAdvModels)].String()
			cases = append(cases, shard(fmt.Sprintf("chaos/%v/%v", host, model), spec, other))
			rec := spec
			rec.RecoverAfter, rec.Confined = 3000, true
			cases = append(cases, shard(fmt.Sprintf("recovery/%v/%v", host, model), rec, withSeed(rec, rec.Seed+70)))
		}
		multi := campaign.ShardSpec{Kind: campaign.KindChaos, Host: host, Org: config.OrgXGTxn1L, Seed: 2,
			CPUs: 2, Accels: 4, Messages: 150, Model: accel.AdvStaleWriter.String(), Faults: chaotic(),
			Confined: true, RecoverAfter: 4000}
		cases = append(cases, shard(fmt.Sprintf("multi/%v", host), multi, withSeed(multi, 9)))
		multiStress := campaign.ShardSpec{Kind: campaign.KindStress, Host: host, Org: config.OrgXGFull2L, Seed: 1,
			CPUs: 2, Cores: 2, Accels: 3, Stores: 30}
		cases = append(cases, shard(fmt.Sprintf("multi-tester/%v", host), multiStress, withSeed(multiStress, 8)))

		for _, org := range []config.Org{config.OrgAccelSide, config.OrgXGFull1L, config.OrgXGTxn2L} {
			spec := config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 1, Seed: 23, Small: true}
			scs := explore.Scenarios()
			for i, sc := range scs {
				other := scs[(i+1)%len(scs)]
				cases = append(cases, pointCase(fmt.Sprintf("explore/%v/%v/%s", host, org, sc.Name), spec,
					sc, []sim.Time{7, 2}, other, []sim.Time{3, 5}))
			}
		}
		spec := config.Spec{Host: host, Org: config.OrgXGFull1L, CPUs: 2, AccelCores: 1, Seed: 31, Small: true}
		cases = append(cases,
			pointCase(fmt.Sprintf("explore/%v/quarantine", host), spec,
				explore.QuarantineScenario(), []sim.Time{5}, explore.QuarantineScenario(), []sim.Time{11}),
			pointCase(fmt.Sprintf("explore/%v/recovery", host), spec,
				explore.RecoveryScenario(), []sim.Time{9}, explore.RecoveryScenario(), []sim.Time{2}))
		multiSpec := spec
		multiSpec.Accels = 2
		for _, sc := range explore.MultiAccelScenarios() {
			cases = append(cases, pointCase(fmt.Sprintf("explore/%v/%s", host, sc.Name), multiSpec,
				sc, []sim.Time{4}, sc, []sim.Time{13}))
		}
		host := host
		cases = append(cases, resetCase{name: fmt.Sprintf("wide/%v", host),
			run: func() string { return wideSig(host, 3, 60) }, unrelated: func() { wideSig(host, 8, 25) }})
	}
	return cases
}

// wideSig runs loads and stores through a wide-line accelerator that its
// spec's custom builder wires with a sequencer of its own, which it adds
// to the machine's, as cmd/xgsim's translation experiment does.
func wideSig(host config.HostKind, seed int64, ops int) string {
	var sq *seq.Sequencer
	spec := config.Spec{Host: host, Org: config.OrgXGFull1L, CPUs: 2, AccelCores: 1, Seed: seed, Timeout: 50_000,
		CustomAccel: func(s *config.System, slot *config.CustomSlot) {
			dev := xlate.Wire(s, slot, 4, 2)
			dev.Accel.AttachObs(s.Obs)
			sq = dev.Seq
		}}
	return machineSig(config.Build(spec), func(sys *config.System) string {
		for i := 0; i < ops; i++ {
			addr := mem.Addr(0x4000 + 64*(i%7))
			sq.Store(addr, byte(i), nil)
			sys.CPUSeqs[i%2].Load(addr+mem.Addr(i%3), nil)
		}
		drained := sys.Eng.RunUntil(20_000_000)
		return fmt.Sprintf("wide drained %v seqs %d\n", drained, len(sys.AccelSeqs))
	})
}

func withSeed(s campaign.ShardSpec, seed int64) campaign.ShardSpec {
	s.Seed = seed
	return s
}

func chaotic() faults.Plan {
	for _, p := range faults.Presets {
		if p.Name == "chaotic" {
			return p.Plan
		}
	}
	panic("no chaotic fault preset")
}

// shardSig runs a campaign shard, traced, and renders what it decided.
func shardSig(spec campaign.ShardSpec) string {
	rep := campaign.Run([]campaign.ShardSpec{spec}, campaign.Options{Workers: 1, Trace: true, TraceTail: 200_000})
	res := rep.Shards[0]
	var b strings.Builder
	fmt.Fprintf(&b, "spec %s\nres %+v\nsent %d injected %d violations %d quarantined %v recoveries %d\nerr %v\n",
		campaign.FormatSpec(spec), res.Res, res.Sent, res.Injected, res.Violations, res.Quarantined,
		res.Recoveries, res.Err)
	writeCodes(&b, res.ByCode)
	if err := res.Obs.WriteJSON(&b); err != nil {
		panic(err)
	}
	for _, n := range rep.CoverageClasses() {
		writeCoverage(&b, rep.Cov[n])
	}
	writeEvents(&b, res.Events)
	for _, r := range res.Recs {
		fmt.Fprintf(&b, "rec %+v\n", r)
	}
	return b.String()
}

// kernelSig runs a GPGPU kernel on a machine of spec and renders it.
func kernelSig(spec config.Spec, kind workload.Kind) string {
	cfg := workload.DefaultConfig(kind)
	cfg.AccessesPerCore = 150
	return machineSig(config.Build(spec), func(sys *config.System) string {
		res, err := workload.Run(sys, cfg)
		return fmt.Sprintf("kernel %+v err %v\n", res, err)
	})
}

// pointCase is one explore scenario point, after a point of another
// scenario (or choice vector) on the same machine shape. A point's
// choices are answered from its vector, and 0 past its end; the
// three-writers cases ask two, off the diagonal only a product of
// choices reaches.
func pointCase(name string, spec config.Spec, sc explore.Scenario, vec []sim.Time, other explore.Scenario, otherVec []sim.Time) resetCase {
	point := func(sc explore.Scenario, vec []sim.Time) string {
		build := config.Build
		if sc.Build != nil {
			build = sc.Build
		}
		asked := 0
		choose := func() (c sim.Time) {
			if asked < len(vec) {
				c = vec[asked]
			}
			asked++
			return c
		}
		return machineSig(build(spec), func(sys *config.System) string {
			verify := sc.Run(sys, choose)
			drained := sys.Eng.RunUntil(20_000_000)
			var verdict error
			if verify != nil {
				verdict = verify()
			}
			return fmt.Sprintf("point %s@%v asked %d drained %v verdict %v\n", sc.Name, vec, asked, drained, verdict)
		})
	}
	return resetCase{name: name, run: func() string { return point(sc, vec) },
		unrelated: func() { point(other, otherVec) }}
}

// machineSig traces drive on sys, renders what the run decided, and closes
// sys.
func machineSig(sys *config.System, drive func(*config.System) string) string {
	defer sys.Close()
	ring := obs.NewRing(200_000)
	sys.Fab.Bus = obs.NewBus(ring)
	var b strings.Builder
	b.WriteString(drive(sys))
	fmt.Fprintf(&b, "now %d executed %d pending %d outstanding %d host %d\n", sys.Eng.Now(), sys.Eng.Executed,
		sys.Eng.Pending(), sys.Outstanding(), sys.HostOutstanding())
	fmt.Fprintf(&b, "audit %v\nhost audit %v\n", sys.Audit(), sys.AuditHostOnly())
	fmt.Fprintf(&b, "errors %d, first %v\n", sys.Log.Count(), sys.Log.Errors)
	writeCodes(&b, sys.Log.ByCode)
	if err := sys.Obs.WriteJSON(&b); err != nil {
		panic(err)
	}
	sys.Coverages(func(cov *coherence.Coverage) { writeCoverage(&b, cov) })
	var chans []string
	sys.Fab.VisitStats(func(src, dst coherence.NodeID, s *network.Stats) {
		chans = append(chans, fmt.Sprintf("chan %d>%d %d msgs %d bytes %v", src, dst, s.Msgs, s.Bytes, s.MsgsByType))
	})
	sort.Strings(chans)
	b.WriteString(strings.Join(chans, "\n"))
	st := sys.Fab.Stats()
	fmt.Fprintf(&b, "pool out %d/%d dropped %d delayed %d mem %d lines %d reads %d writes\n",
		st.MsgsOut, st.BlocksOut, sys.Fab.Dropped, sys.Fab.DelayedSends(), sys.Mem.Lines(), sys.Mem.Reads, sys.Mem.Writes)
	for _, g := range sys.Guards {
		fmt.Fprintf(&b, "guard %s quarantined %v entries %d epoch %d recoveries %d stats %d %d %d %d %d %d %d %d %d %d %d\n",
			g.Name(), g.Quarantined, g.TableEntries(), g.Epoch(), g.Recoveries(), g.PutSSuppressed, g.PutSForwarded,
			g.SnoopsFiltered, g.SnoopsForwarded, g.Timeouts, g.RetriesSent, g.RateDelayed, g.ReqsBlocked,
			g.Parked, g.Woken, g.RecallsCoalesced)
	}
	for _, sq := range sys.Sequencers() {
		fmt.Fprintf(&b, "seq %s loads %d stores %d done %d latency %d/%d\n", sq.Name(), sq.Loads, sq.Stores,
			sq.Completed, sq.TotalLatency, sq.MaxLatency)
	}
	writeEvents(&b, ring.Events())
	return b.String()
}

func writeCodes(b *strings.Builder, byCode map[string]uint64) {
	codes := make([]string, 0, len(byCode))
	for c := range byCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(b, "code %s=%d\n", c, byCode[c])
	}
}

func writeCoverage(b *strings.Builder, cov *coherence.Coverage) {
	snap := cov.Snapshot()
	pairs := make([]string, 0, len(snap))
	for p, n := range snap {
		pairs = append(pairs, fmt.Sprintf("%s=%d", p, n))
	}
	sort.Strings(pairs)
	fmt.Fprintf(b, "coverage %s %v unexpected %v\n", cov.Name(), pairs, cov.Unexpected)
}

func writeEvents(b *strings.Builder, events []obs.Event) {
	for _, e := range events {
		fmt.Fprintf(b, "event %+v\n", e)
	}
}

// firstDiff shows the first line where two renderings part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  new:   %s\n  reset: %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("new machine rendered %d lines, reset one %d", len(w), len(g))
}
