// Command xgsim regenerates the performance-side tables and figures of
// the Crossing Guard evaluation: the Table 1 transition matrix (E1), the
// protocol-complexity comparison (E2), normalized runtime and access
// latency across the 12 cache organizations (E5/E6), PutS overhead (E7),
// guard storage (E8), DoS rate limiting (E9), and block-size translation
// (E10). See EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	xgsim [-experiment all|table1|complexity|perf|latency|hist|puts|storage|dos|blockxlate]
//	      [-accesses N] [-cores N] [-cpus N] [-seed N] [-metrics out.json]
//
// -metrics accumulates every simulated machine's instruments into one
// registry (the sweep runs machines sequentially, so accumulation is
// deterministic) and writes it as JSON on exit; render with cmd/xgreport.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"crossingguard/internal/accel"
	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/core"
	"crossingguard/internal/fuzz"
	"crossingguard/internal/hostproto/hammer"
	"crossingguard/internal/hostproto/mesi"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/seq"
	"crossingguard/internal/stats"
	"crossingguard/internal/workload"
	"crossingguard/internal/xlate"
)

var (
	experiment = flag.String("experiment", "all", "which experiment to run")
	accesses   = flag.Int("accesses", 2000, "accelerator accesses per core")
	cores      = flag.Int("cores", 2, "accelerator cores")
	cpus       = flag.Int("cpus", 2, "CPU cores")
	seed       = flag.Int64("seed", 1, "simulation seed")
	metrics    = flag.String("metrics", "", "write accumulated metrics JSON to this file (render with cmd/xgreport)")
)

// metricsReg accumulates instruments across every machine the sweep
// builds (passed to config.Build as Spec.Obs).
var metricsReg = obs.NewRegistry()

func main() {
	flag.Parse()
	if err := config.CheckSize(*cpus, *cores); err != nil {
		fmt.Fprintln(os.Stderr, "xgsim:", err)
		os.Exit(2)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()
	run := func(name string, fn func(*tabwriter.Writer)) {
		if *experiment == "all" || *experiment == name {
			fn(w)
			w.Flush()
			fmt.Println()
		}
	}
	run("table1", table1)
	run("complexity", complexity)
	run("perf", perf)
	run("latency", latency)
	run("hist", hist)
	run("puts", putsOverhead)
	run("storage", storage)
	run("dos", dos)
	run("blockxlate", blockXlate)
	if *metrics != "" {
		if err := writeMetrics(*metrics); err != nil {
			fmt.Fprintln(os.Stderr, "xgsim:", err)
			os.Exit(1)
		}
	}
}

func writeMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metricsReg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func hosts() []config.HostKind { return []config.HostKind{config.HostHammer, config.HostMESI} }

// table1 prints the accelerator L1 transition matrix as implemented,
// which tests machine-check against the published Table 1 (E1).
func table1(w *tabwriter.Writer) {
	fmt.Fprintln(w, "E1: accelerator L1 transition matrix (paper Table 1)")
	events := []string{"Load", "Store", "Replacement", "A:Inv", "A:DataM", "A:DataE", "A:DataS", "A:WBAck"}
	cells := map[string]map[string]string{
		"M": {"Load": "hit", "Store": "hit", "Replacement": "issue PutM / B", "A:Inv": "send DirtyWB / I"},
		"E": {"Load": "hit", "Store": "hit / M", "Replacement": "issue PutE / B", "A:Inv": "send CleanWB / I"},
		"S": {"Load": "hit", "Store": "issue GetM / B", "Replacement": "issue PutS / B", "A:Inv": "send InvAck / I"},
		"I": {"Load": "issue GetS / B", "Store": "issue GetM / B", "A:Inv": "send InvAck"},
		"B": {"Load": "stall", "Store": "stall", "Replacement": "stall", "A:Inv": "send InvAck",
			"A:DataM": "/ M", "A:DataE": "/ E", "A:DataS": "/ S", "A:WBAck": "/ I"},
	}
	declared := map[string]bool{}
	for _, p := range accel.Table1Pairs() {
		declared[p[0]+"/"+p[1]] = true
	}
	fmt.Fprint(w, "state")
	for _, e := range events {
		fmt.Fprint(w, "\t", e)
	}
	fmt.Fprintln(w)
	for _, st := range []string{"M", "E", "S", "I", "B"} {
		fmt.Fprint(w, st)
		for _, e := range events {
			c := cells[st][e]
			if c == "" {
				c = "-"
			}
			if c != "-" && !declared[st+"/"+e] {
				c += " (UNDECLARED!)"
			}
			fmt.Fprint(w, "\t", c)
		}
		fmt.Fprintln(w)
	}
}

// complexity prints the protocol-complexity comparison of §2.4 (E2).
func complexity(w *tabwriter.Writer) {
	fmt.Fprintln(w, "E2: coherence complexity at the accelerator-facing cache")
	fmt.Fprintln(w, "cache\tstable\ttransient\thost reqs in\thost resps in\tresps out")
	aS, aT := accel.StateInventory()
	fmt.Fprintf(w, "accel L1 (XG iface)\t%d\t%d\t%d\t%d\t%d\n", len(aS), len(aT), 1, 4, 3)
	mS, mT := mesi.StateInventory()
	fmt.Fprintf(w, "MESI host L1\t%d\t%d\t%d\t%d\t%d\n", len(mS), len(mT), 4, 7, 5)
	hS, hT := hammer.StateInventory()
	fmt.Fprintf(w, "Hammer host cache\t%d\t%d\t%d\t%d\t%d\n", len(hS), len(hT), 3, 6, 4)
}

func orgRow(host config.HostKind, org config.Org, kind workload.Kind) workload.Result {
	cfg := workload.DefaultConfig(kind)
	cfg.AccessesPerCore = *accesses
	sys := config.Build(config.Spec{Host: host, Org: org, CPUs: *cpus, AccelCores: *cores,
		Seed: *seed, Perms: workload.Perms(cfg), Obs: metricsReg})
	res, err := workload.Run(sys, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xgsim: %v/%v/%v: %v\n", host, org, kind, err)
		os.Exit(1)
	}
	if res.Errors != 0 {
		fmt.Fprintf(os.Stderr, "xgsim: %v/%v/%v: unexpected protocol errors\n", host, org, kind)
		os.Exit(1)
	}
	return res
}

// perf prints runtime normalized to the unsafe accelerator-side cache
// (E5, the paper's headline performance figure).
func perf(w *tabwriter.Writer) {
	fmt.Fprintln(w, "E5: runtime normalized to the unsafe accel-side cache (lower is better)")
	fmt.Fprint(w, "host/workload")
	for _, org := range config.AllOrgs {
		fmt.Fprint(w, "\t", org)
	}
	fmt.Fprintln(w)
	perOrg := make(map[config.Org][]float64)
	for _, host := range hosts() {
		for _, kind := range workload.AllKinds {
			base := float64(orgRow(host, config.OrgAccelSide, kind).Cycles)
			fmt.Fprintf(w, "%v/%v", host, kind)
			for _, org := range config.AllOrgs {
				res := orgRow(host, org, kind)
				n := float64(res.Cycles) / base
				perOrg[org] = append(perOrg[org], n)
				fmt.Fprintf(w, "\t%.2f", n)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprint(w, "geomean")
	for _, org := range config.AllOrgs {
		fmt.Fprintf(w, "\t%.2f", stats.GeoMean(perOrg[org]))
	}
	fmt.Fprintln(w)
}

// latency prints mean accelerator access latency in ticks (E6).
func latency(w *tabwriter.Writer) {
	fmt.Fprintln(w, "E6: mean accelerator access latency (ticks)")
	fmt.Fprint(w, "host/workload")
	for _, org := range config.AllOrgs {
		fmt.Fprint(w, "\t", org)
	}
	fmt.Fprintln(w)
	for _, host := range hosts() {
		for _, kind := range workload.AllKinds {
			fmt.Fprintf(w, "%v/%v", host, kind)
			for _, org := range config.AllOrgs {
				fmt.Fprintf(w, "\t%.1f", orgRow(host, org, kind).AccelAvgLat)
			}
			fmt.Fprintln(w)
		}
	}
}

// hist prints the accelerator access-latency distribution for one
// representative configuration of each organization class (supplements
// E6 with the full shape, not just the mean).
func hist(w *tabwriter.Writer) {
	fmt.Fprintln(w, "E6b: accelerator access latency distribution (graph kernel, MESI host)")
	w.Flush()
	for _, org := range []config.Org{config.OrgAccelSide, config.OrgHostSide,
		config.OrgXGFull1L, config.OrgXGFull2L} {
		res := orgRow(config.HostMESI, org, workload.Graph)
		fmt.Printf("\n%v: %s\n%s", org, res.AccelLat.Summary(), res.AccelLat.Histogram(36))
	}
}

// putsOverhead prints the PutS share of accel-to-guard traffic (E7;
// paper §2.1 reports ~1-4% of guard-to-host bandwidth).
func putsOverhead(w *tabwriter.Writer) {
	fmt.Fprintln(w, "E7: PutS share of accelerator-to-guard traffic; suppression toward the host")
	fmt.Fprintln(w, "host/workload\torg\tPutS frac\tsuppressed\tforwarded")
	for _, host := range hosts() {
		for _, kind := range workload.AllKinds {
			for _, org := range []config.Org{config.OrgXGFull1L, config.OrgXGFull2L} {
				cfg := workload.DefaultConfig(kind)
				cfg.AccessesPerCore = *accesses
				sys := config.Build(config.Spec{Host: host, Org: org, CPUs: *cpus,
					AccelCores: *cores, Seed: *seed, Perms: workload.Perms(cfg), Obs: metricsReg})
				res, err := workload.Run(sys, cfg)
				if err != nil {
					continue
				}
				var sup, fwd uint64
				for _, g := range sys.Guards {
					sup += g.PutSSuppressed
					fwd += g.PutSForwarded
				}
				fmt.Fprintf(w, "%v/%v\t%v\t%.2f%%\t%d\t%d\n", host, kind, org, 100*res.PutSFrac, sup, fwd)
			}
		}
	}
}

// storage prints guard state requirements (E8; paper §2.3: a 256 kB
// accelerator cache needs ~16 kB of Full State tag storage).
func storage(w *tabwriter.Writer) {
	fmt.Fprintln(w, "E8: Crossing Guard storage, Full State vs Transactional")
	fmt.Fprintln(w, "accel cache\tFull State (paper model)\tFull State (measured peak)\tTransactional (measured peak)")
	for _, kb := range []int{16, 64, 256} {
		blocks := kb * 1024 / mem.BlockBytes
		paperModel := blocks * 6 // ~tag+state bytes per resident block
		measure := func(mode config.Org) int {
			cfg := workload.DefaultConfig(workload.Blocked)
			cfg.AccessesPerCore = kb * 1024 // enough touches to fill the cache
			cfg.Footprint = kb * 1024 * 8   // per-core tile band = 2x the cache
			sys := config.Build(config.Spec{Host: config.HostMESI, Org: mode, CPUs: *cpus,
				AccelCores: 1, Seed: *seed, Perms: workload.Perms(cfg), AccelL1KB: kb, Obs: metricsReg})
			peak := 0
			sys.Eng.Ticker(500, func() {
				for _, g := range sys.Guards {
					if b := g.StorageBytes(); b > peak {
						peak = b
					}
				}
			})
			if _, err := workload.Run(sys, cfg); err != nil {
				return -1
			}
			return peak
		}
		fmt.Fprintf(w, "%d KiB\t%d B\t%d B\t%d B\n",
			kb, paperModel, measure(config.OrgXGFull1L), measure(config.OrgXGTxn1L))
	}
}

// dos demonstrates §2.5 rate limiting: a flooding accelerator degrades
// CPU latency; the guard's token bucket restores it.
func dos(w *tabwriter.Writer) {
	fmt.Fprintln(w, "E9: CPU access latency under an accelerator request flood")
	fmt.Fprintln(w, "scenario\tCPU avg latency (ticks)\taccel reqs delayed")
	measure := func(flood bool, rate *core.RateLimit) {
		var att *fuzz.Attacker
		var pool []mem.Addr
		// The flood targets the very lines the CPUs are using, consuming
		// directory occupancy the host needs.
		for i := 0; i < 64; i++ {
			pool = append(pool, mem.Addr(0x300000+i*mem.BlockBytes))
		}
		// The Transactional guard keeps no block table, so a repeated
		// legitimate-looking request stream reaches the host — exactly
		// the resource-consumption attack §2.5 rate-limits.
		spec := config.Spec{Host: config.HostHammer, Org: config.OrgXGTxn1L,
			CPUs: *cpus, AccelCores: 1, Seed: *seed, Rate: rate, Timeout: 50_000, Obs: metricsReg,
			CustomAccel: func(s *config.System, accelID, xgID coherence.NodeID) func() int {
				att = fuzz.NewAttacker(accelID, xgID, s.Eng, s.Fab, *seed+1, pool)
				att.Policy = fuzz.InvCorrectAck
				return nil
			},
		}
		sys := config.Build(spec)
		if flood {
			// A legitimate-looking but relentless request stream.
			i := 0
			var fire func()
			fire = func() {
				att.Send(coherence.AGetS, pool[i%len(pool)], nil)
				i++
				if i < 200_000 {
					sys.Eng.Schedule(2, fire)
				}
			}
			sys.Eng.Schedule(1, fire)
		}
		// CPU work: a pointer-chase over its own region.
		doneOps := 0
		var step func(sq *seq.Sequencer, i int)
		step = func(sq *seq.Sequencer, i int) {
			if i >= 1500 {
				doneOps++
				if doneOps == len(sys.CPUSeqs) {
					sys.Eng.Stop()
				}
				return
			}
			a := mem.Addr(0x300000 + (i*mem.BlockBytes)%(1<<13))
			if i%3 == 0 {
				sq.Store(a, byte(i), func(*seq.Op) { step(sq, i+1) })
			} else {
				sq.Load(a, func(*seq.Op) { step(sq, i+1) })
			}
		}
		for _, sq := range sys.CPUSeqs {
			sq := sq
			sys.Eng.Schedule(1, func() { step(sq, 0) })
		}
		sys.Eng.RunUntil(100_000_000)
		var lat float64
		for _, sq := range sys.CPUSeqs {
			lat += sq.AvgLatency()
		}
		lat /= float64(len(sys.CPUSeqs))
		name := "idle accelerator"
		if flood {
			name = "flood, no limit"
			if rate != nil {
				name = "flood, rate-limited"
			}
		}
		var delayed uint64
		for _, g := range sys.Guards {
			delayed += g.RateDelayed
		}
		fmt.Fprintf(w, "%s\t%.1f\t%d\n", name, lat, delayed)
	}
	measure(false, nil)
	measure(true, nil)
	measure(true, core.NewRateLimit(8, 200))
}

// blockXlate exercises §2.5 block-size translation (E10).
func blockXlate(w *tabwriter.Writer) {
	fmt.Fprintln(w, "E10: 128B accelerator blocks over the 64B host (merge/split translation)")
	fmt.Fprintln(w, "host\tmerged fills\tsplit writebacks\thalf-line recalls\terrors")
	for _, host := range hosts() {
		sys, wide, sq := buildWideRig(host, *seed)
		n := 0
		var step func()
		step = func() {
			if n >= *accesses {
				return
			}
			a := mem.Addr(0x100000 + (n*32)%(1<<13))
			n++
			if n%4 == 0 {
				sq.Store(a, byte(n), func(*seq.Op) { step() })
			} else {
				sq.Load(a, func(*seq.Op) { step() })
			}
		}
		sys.Eng.Schedule(1, step)
		// CPU interference over the same region produces half-recalls.
		ci := 0
		var cstep func()
		cstep = func() {
			if ci >= *accesses/4 {
				return
			}
			a := mem.Addr(0x100000 + (ci*192)%(1<<13))
			ci++
			sys.CPUSeqs[0].Store(a, byte(ci), func(*seq.Op) { sys.Eng.Schedule(40, cstep) })
		}
		sys.Eng.Schedule(3, cstep)
		sys.Eng.RunUntil(100_000_000)
		fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%d\n", host, wide.Merges, wide.Splits,
			wide.FalseShareRecalls, sys.Log.Count())
	}
}

// buildWideRig attaches a 128-byte-block accelerator (internal/xlate)
// behind a real Full State guard.
func buildWideRig(host config.HostKind, seed int64) (*config.System, *xlate.WideAccel, *seq.Sequencer) {
	var wide *xlate.WideAccel
	var sq *seq.Sequencer
	spec := config.Spec{
		Host: host, Org: config.OrgXGFull1L, CPUs: *cpus, AccelCores: 1,
		Seed: seed, Timeout: 50_000, Obs: metricsReg,
		CustomAccel: func(s *config.System, accelID, xgID coherence.NodeID) func() int {
			wide = xlate.NewWideAccel(accelID, "wide", s.Eng, s.Fab, xgID, 16, 4)
			wide.AttachObs(s.Obs)
			sq = seq.New(350, "wacc", s.Eng, s.Fab, accelID)
			s.AccelSeqs = append(s.AccelSeqs, sq)
			s.Fab.SetRoutePair(sq.ID(), accelID, network.Config{Latency: 1, Ordered: true})
			return wide.Outstanding
		},
	}
	return config.Build(spec), wide, sq
}
