// Command xgsim regenerates the tables of the Crossing Guard evaluation
// that whole-machine runs measure: the Table 1 transition matrix (E1),
// the protocol-complexity comparison (E2), normalized runtime and access
// latency across the 12 cache organizations (E5/E6), PutS overhead (E7),
// guard storage (E8), DoS rate limiting (E9), block-size translation
// (E10), timeout recovery (E11), snoop filtering (E12) and the ablations
// A1-A4. Each experiment is defined once, here: a function that builds
// its machines, runs them and returns its numbers, and a print method
// that renders them. main_test.go runs the same functions, pins their
// output to testdata/xgsim.golden and asserts the paper's verdicts on
// the results. See EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	xgsim [-experiment all|table1|complexity|perf|latency|hist|puts|storage|dos|blockxlate|timeout|snoop|ablation]
//	      [-accesses N] [-cores N] [-cpus N] [-seed N] [-metrics out.json]
//
// -metrics accumulates every simulated machine's instruments into one
// registry (the sweep runs machines sequentially, so accumulation is
// deterministic) and writes it as JSON on exit; render with cmd/xgreport.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
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
	"crossingguard/internal/perm"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
	"crossingguard/internal/stats"
	"crossingguard/internal/workload"
	"crossingguard/internal/xlate"
)

// params are the knobs every experiment reads, one flag each.
type params struct {
	accesses, cores, cpus int
	seed                  int64
}

// defaults are the flag defaults, the parameters the golden pins.
var defaults = params{accesses: 2000, cores: 2, cpus: 2, seed: 1}

// section is one experiment's result; print renders it as a table.
type section interface{ print(out io.Writer) }

// experiments in the order -experiment all runs and prints them.
var experiments = []struct {
	name string
	run  func(*lab) section
}{
	{"table1", as(table1)}, {"complexity", as(complexity)}, {"perf", as(perf)},
	{"latency", as(latency)}, {"hist", as(hist)}, {"puts", as(puts)},
	{"storage", as(storage)}, {"dos", as(dos)}, {"blockxlate", as(blockXlate)},
	{"timeout", as(timeout)}, {"snoop", as(snoop)}, {"ablation", as(ablate)},
}

func as[T section](f func(*lab) T) func(*lab) section {
	return func(l *lab) section { return f(l) }
}

func main() {
	p := defaults
	experiment := flag.String("experiment", "all", "which experiment to run: all, table1, complexity, perf, latency, hist, puts, storage, dos, blockxlate, timeout, snoop, or ablation")
	flag.IntVar(&p.accesses, "accesses", defaults.accesses, "accelerator accesses per core")
	flag.IntVar(&p.cores, "cores", defaults.cores, "accelerator cores")
	flag.IntVar(&p.cpus, "cpus", defaults.cpus, "CPU cores")
	flag.Int64Var(&p.seed, "seed", defaults.seed, "simulation seed")
	metrics := flag.String("metrics", "", "write accumulated metrics JSON to this file (render with cmd/xgreport)")
	flag.Parse()
	for _, f := range []struct {
		name string
		v    int
	}{{"accesses", p.accesses}, {"cores", p.cores}, {"cpus", p.cpus}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "xgsim: -%s %d is below the minimum of 1\n", f.name, f.v)
			os.Exit(2)
		}
	}
	if err := config.CheckSize(p.cpus, p.cores, 1); err != nil {
		fmt.Fprintln(os.Stderr, "xgsim:", err)
		os.Exit(2)
	}
	l := newLab(p)
	if len(runAll(l, *experiment, os.Stdout)) == 0 {
		fmt.Fprintf(os.Stderr, "xgsim: unknown -experiment %q (see -help)\n", *experiment)
		os.Exit(2)
	}
	if *metrics != "" {
		if err := writeMetrics(l.reg, *metrics); err != nil {
			fmt.Fprintln(os.Stderr, "xgsim:", err)
			os.Exit(1)
		}
	}
}

// runAll runs the experiments which selects ("all" selects every one) in
// order, prints each section to out followed by a blank line, and returns
// the results by experiment name.
func runAll(l *lab, which string, out io.Writer) map[string]section {
	secs := map[string]section{}
	for _, e := range experiments {
		if which == "all" || which == e.name {
			s := e.run(l)
			s.print(out)
			fmt.Fprintln(out)
			secs[e.name] = s
		}
	}
	return secs
}

func writeMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail ends xgsim with exit 1: a run the experiment needs went wrong.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xgsim: "+format+"\n", args...)
	os.Exit(1)
}

func newTable(out io.Writer) *tabwriter.Writer { return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0) }

var hosts = []config.HostKind{config.HostHammer, config.HostMESI}

// lab builds and runs the experiments' machines. Every machine registers
// its instruments in reg, and each (host, kernel, org) cell of the kernel
// sweep runs once however many experiments read it.
type lab struct {
	params
	reg   *obs.Registry
	cells map[cellKey]cell
}

type cellKey struct {
	host config.HostKind
	kind workload.Kind
	org  config.Org
}

// cell is one kernel run of the sweep: the workload's measurements plus
// the guards' PutS accounting, which workload.Result does not carry.
type cell struct {
	workload.Result
	putsSuppressed, putsForwarded uint64
}

func newLab(p params) *lab {
	return &lab{params: p, reg: obs.NewRegistry(), cells: map[cellKey]cell{}}
}

// spec is the machine an experiment starts from.
func (l *lab) spec(host config.HostKind, org config.Org) config.Spec {
	return config.Spec{Host: host, Org: org, CPUs: l.cpus, AccelCores: l.cores, Seed: l.seed}
}

// kernel is the workload an experiment starts from.
func (l *lab) kernel(kind workload.Kind) workload.Config {
	cfg := workload.DefaultConfig(kind)
	cfg.AccessesPerCore = l.accesses
	return cfg
}

// build builds one machine that registers its instruments in the lab's
// registry.
func (l *lab) build(spec config.Spec) *config.System {
	spec.Obs = l.reg
	return config.Build(spec)
}

// run drives sys with one kernel; every workload measurement goes through
// it. A workload error or a protocol error ends xgsim with exit 1.
func (l *lab) run(sys *config.System, cfg workload.Config) workload.Result {
	res, err := workload.Run(sys, cfg)
	if err == nil && res.Errors != 0 {
		err = fmt.Errorf("%d unexpected protocol errors", res.Errors)
	}
	if err != nil {
		fail("%v/%v/%v: %v", sys.Spec.Host, sys.Spec.Org, cfg.Kind, err)
	}
	return res
}

// cell returns the sweep's run of kind on (host, org), running it on
// first use.
func (l *lab) cell(host config.HostKind, kind workload.Kind, org config.Org) cell {
	k := cellKey{host, kind, org}
	if c, ok := l.cells[k]; ok {
		return c
	}
	cfg := l.kernel(kind)
	spec := l.spec(host, org)
	spec.Perms = workload.Perms(cfg)
	sys := l.build(spec)
	c := cell{Result: l.run(sys, cfg)}
	for _, g := range sys.Guards {
		c.putsSuppressed += g.PutSSuppressed
		c.putsForwarded += g.PutSForwarded
	}
	l.cells[k] = c
	return c
}

// matrix is E1: the accelerator L1 transition matrix as implemented,
// which tests machine-check against the published Table 1.
type matrix struct {
	events     []string
	rows       [][]string // the state, then one cell per event
	undeclared int        // cells accel.Table1Pairs does not declare
}

func table1(*lab) matrix {
	m := matrix{events: []string{"Load", "Store", "Replacement", "A:Inv", "A:DataM", "A:DataE", "A:DataS", "A:WBAck"}}
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
	for _, st := range []string{"M", "E", "S", "I", "B"} {
		row := []string{st}
		for _, e := range m.events {
			c := cells[st][e]
			if c == "" {
				c = "-"
			}
			if c != "-" && !declared[st+"/"+e] {
				c += " (UNDECLARED!)"
				m.undeclared++
			}
			row = append(row, c)
		}
		m.rows = append(m.rows, row)
	}
	return m
}

func (m matrix) print(out io.Writer) {
	w := newTable(out)
	fmt.Fprintln(w, "E1: accelerator L1 transition matrix (paper Table 1)")
	fmt.Fprintln(w, "state\t"+strings.Join(m.events, "\t"))
	for _, row := range m.rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
}

// complexityRow is one cache of E2, the protocol-complexity comparison
// of §2.4.
type complexityRow struct {
	cache                                        string
	stable, transient, reqsIn, respsIn, respsOut int
}

type complexityTable []complexityRow

func complexity(*lab) complexityTable {
	aS, aT := accel.StateInventory()
	mS, mT := mesi.StateInventory()
	hS, hT := hammer.StateInventory()
	return complexityTable{
		{"accel L1 (XG iface)", len(aS), len(aT), 1, 4, 3},
		{"MESI host L1", len(mS), len(mT), 4, 7, 5},
		{"Hammer host cache", len(hS), len(hT), 3, 6, 4},
	}
}

func (t complexityTable) print(out io.Writer) {
	w := newTable(out)
	fmt.Fprintln(w, "E2: coherence complexity at the accelerator-facing cache")
	fmt.Fprintln(w, "cache\tstable\ttransient\thost reqs in\thost resps in\tresps out")
	for _, r := range t {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", r.cache, r.stable, r.transient, r.reqsIn, r.respsIn, r.respsOut)
	}
	w.Flush()
}

// sweep is a (host, kernel) × organization table over the kernel sweep:
// E5's normalized runtime or E6's mean access latency.
type sweep struct {
	title   string
	verb    string // the format of one value
	rows    []sweepRow
	geomean []float64 // one per organization; E5 only
}

type sweepRow struct {
	host config.HostKind
	kind workload.Kind
	vals []float64 // one per config.AllOrgs
}

// perf is E5, the paper's headline performance figure: runtime
// normalized to the unsafe accelerator-side cache.
func perf(l *lab) sweep {
	s := sweep{title: "E5: runtime normalized to the unsafe accel-side cache (lower is better)", verb: "%.2f"}
	perOrg := make([][]float64, len(config.AllOrgs))
	for _, host := range hosts {
		for _, kind := range workload.AllKinds {
			base := float64(l.cell(host, kind, config.OrgAccelSide).Cycles)
			row := sweepRow{host: host, kind: kind}
			for i, org := range config.AllOrgs {
				n := float64(l.cell(host, kind, org).Cycles) / base
				row.vals = append(row.vals, n)
				perOrg[i] = append(perOrg[i], n)
			}
			s.rows = append(s.rows, row)
		}
	}
	for _, v := range perOrg {
		s.geomean = append(s.geomean, stats.GeoMean(v))
	}
	return s
}

// latency is E6: mean accelerator access latency in ticks.
func latency(l *lab) sweep {
	s := sweep{title: "E6: mean accelerator access latency (ticks)", verb: "%.1f"}
	for _, host := range hosts {
		for _, kind := range workload.AllKinds {
			row := sweepRow{host: host, kind: kind}
			for _, org := range config.AllOrgs {
				row.vals = append(row.vals, l.cell(host, kind, org).AccelAvgLat)
			}
			s.rows = append(s.rows, row)
		}
	}
	return s
}

func (s sweep) print(out io.Writer) {
	w := newTable(out)
	fmt.Fprintln(w, s.title)
	fmt.Fprint(w, "host/workload")
	for _, org := range config.AllOrgs {
		fmt.Fprint(w, "\t", org)
	}
	fmt.Fprintln(w)
	for _, r := range s.rows {
		fmt.Fprintf(w, "%v/%v", r.host, r.kind)
		for _, v := range r.vals {
			fmt.Fprintf(w, "\t"+s.verb, v)
		}
		fmt.Fprintln(w)
	}
	if s.geomean != nil {
		fmt.Fprint(w, "geomean")
		for _, v := range s.geomean {
			fmt.Fprintf(w, "\t"+s.verb, v)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

// histOrgs are E6b's organizations, one per class.
var histOrgs = []config.Org{config.OrgAccelSide, config.OrgHostSide, config.OrgXGFull1L, config.OrgXGFull2L}

// histograms is E6b: the accelerator access-latency distribution of one
// representative organization per class, the full shape behind E6's mean.
type histograms []stats.Counts // one per histOrgs

func hist(l *lab) histograms {
	var h histograms
	for _, org := range histOrgs {
		h = append(h, l.cell(config.HostMESI, workload.Graph, org).AccelLat)
	}
	return h
}

func (h histograms) print(out io.Writer) {
	fmt.Fprintln(out, "E6b: accelerator access latency distribution (graph kernel, MESI host)")
	for i := range h {
		fmt.Fprintf(out, "\n%v: %s\n%s", histOrgs[i], h[i].Summary(), h[i].Histogram(36))
	}
}

// putsRow is one guarded cell of E7: the PutS share of accelerator-to-
// guard traffic (paper §2.1 reports ~1-4% of guard-to-host bandwidth) and
// how many of those PutS the guard kept from the host.
type putsRow struct {
	host                  config.HostKind
	kind                  workload.Kind
	org                   config.Org
	frac                  float64
	suppressed, forwarded uint64
}

type putsTable []putsRow

func puts(l *lab) putsTable {
	var t putsTable
	for _, host := range hosts {
		for _, kind := range workload.AllKinds {
			for _, org := range []config.Org{config.OrgXGFull1L, config.OrgXGFull2L} {
				c := l.cell(host, kind, org)
				t = append(t, putsRow{host, kind, org, c.PutSFrac, c.putsSuppressed, c.putsForwarded})
			}
		}
	}
	return t
}

func (t putsTable) print(out io.Writer) {
	w := newTable(out)
	fmt.Fprintln(w, "E7: PutS share of accelerator-to-guard traffic; suppression toward the host")
	fmt.Fprintln(w, "host/workload\torg\tPutS frac\tsuppressed\tforwarded")
	for _, r := range t {
		fmt.Fprintf(w, "%v/%v\t%v\t%.2f%%\t%d\t%d\n", r.host, r.kind, r.org, 100*r.frac, r.suppressed, r.forwarded)
	}
	w.Flush()
}

// storageRow is one accelerator cache size of E8 (paper §2.3: a 256 kB
// accelerator cache needs ~16 kB of Full State tag storage).
type storageRow struct {
	kb, model, full, txn int // model is the paper's ~6 bytes per resident block
}

type storageTable []storageRow

func storage(l *lab) storageTable {
	var t storageTable
	for _, kb := range []int{16, 64, 256} {
		blocks := kb * 1024 / mem.BlockBytes
		t = append(t, storageRow{kb, blocks * 6, l.peakStorage(kb, config.OrgXGFull1L), l.peakStorage(kb, config.OrgXGTxn1L)})
	}
	return t
}

// peakStorage runs the blocked kernel through a one-core accelerator
// with a kb KiB cache behind org's guard and returns the largest guard
// state a 500-tick probe saw.
func (l *lab) peakStorage(kb int, org config.Org) int {
	cfg := workload.DefaultConfig(workload.Blocked)
	cfg.AccessesPerCore = kb * 1024 // enough touches to fill the cache
	cfg.Footprint = kb * 1024 * 8   // per-core tile band = 2x the cache
	spec := l.spec(config.HostMESI, org)
	spec.AccelCores, spec.AccelL1KB, spec.Perms = 1, kb, workload.Perms(cfg)
	sys := l.build(spec)
	peak := 0
	var stop func()
	stop = sys.Eng.Ticker(500, func() {
		for _, g := range sys.Guards {
			peak = max(peak, g.StorageBytes())
		}
		// The probe is the only event left: the run is over, and a probe
		// that kept ticking would hold the machine to its deadline.
		if sys.Eng.Pending() == 1 {
			stop()
		}
	})
	l.run(sys, cfg)
	return peak
}

func (t storageTable) print(out io.Writer) {
	w := newTable(out)
	fmt.Fprintln(w, "E8: Crossing Guard storage, Full State vs Transactional")
	fmt.Fprintln(w, "accel cache\tFull State (paper model)\tFull State (measured peak)\tTransactional (measured peak)")
	for _, r := range t {
		fmt.Fprintf(w, "%d KiB\t%d B\t%d B\t%d B\n", r.kb, r.model, r.full, r.txn)
	}
	w.Flush()
}

// floodRow is one scenario of E9: the CPUs' mean access latency beside
// an idle, a flooding, and a rate-limited flooding accelerator (§2.5).
type floodRow struct {
	name    string
	lat     float64
	delayed uint64 // accelerator requests the rate limiter held back
}

type floodTable []floodRow

func dos(l *lab) floodTable {
	return floodTable{
		l.flood("idle accelerator", false, nil),
		l.flood("flood, no limit", true, nil),
		l.flood("flood, rate-limited", true, core.NewRateLimit(8, 200)),
	}
}

func (l *lab) flood(name string, flood bool, rate *core.RateLimit) floodRow {
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
	spec := l.spec(config.HostHammer, config.OrgXGTxn1L)
	spec.AccelCores, spec.Rate, spec.Timeout = 1, rate, 50_000
	spec.CustomAccel = func(s *config.System, accelID, xgID coherence.NodeID) func() int {
		att = fuzz.NewAttacker(accelID, xgID, s.Eng, s.Fab, l.seed+1, pool)
		att.Policy = fuzz.InvCorrectAck
		return nil
	}
	sys := l.build(spec)
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
		sys.Eng.Schedule(1, func() { step(sq, 0) })
	}
	sys.Eng.RunUntil(100_000_000)
	r := floodRow{name: name}
	for _, sq := range sys.CPUSeqs {
		r.lat += sq.AvgLatency()
	}
	r.lat /= float64(len(sys.CPUSeqs))
	for _, g := range sys.Guards {
		r.delayed += g.RateDelayed
	}
	return r
}

func (t floodTable) print(out io.Writer) {
	w := newTable(out)
	fmt.Fprintln(w, "E9: CPU access latency under an accelerator request flood")
	fmt.Fprintln(w, "scenario\tCPU avg latency (ticks)\taccel reqs delayed")
	for _, r := range t {
		fmt.Fprintf(w, "%s\t%.1f\t%d\n", r.name, r.lat, r.delayed)
	}
	w.Flush()
}

// xlateRow is one host of E10: a 128-byte-block accelerator over the
// 64-byte host through the guard's merge/split translation (§2.5).
type xlateRow struct {
	host                                config.HostKind
	merges, splits, halfRecalls, errors uint64
}

type xlateTable []xlateRow

func blockXlate(l *lab) xlateTable {
	var t xlateTable
	for _, host := range hosts {
		t = append(t, l.wideRun(host))
	}
	return t
}

// wideRun attaches a 128-byte-block accelerator (internal/xlate) behind a
// real Full State guard, drives it with loads and stores while a CPU
// stores into the same region, and counts the translation's work.
func (l *lab) wideRun(host config.HostKind) xlateRow {
	var wide *xlate.WideAccel
	var sq *seq.Sequencer
	spec := l.spec(host, config.OrgXGFull1L)
	spec.AccelCores, spec.Timeout = 1, 50_000
	spec.CustomAccel = func(s *config.System, accelID, xgID coherence.NodeID) func() int {
		wide = xlate.NewWideAccel(accelID, "wide", s.Eng, s.Fab, xgID, 16, 4)
		wide.AttachObs(s.Obs)
		sq = seq.New(350, "wacc", s.Eng, s.Fab, accelID, &s.Ops)
		s.AccelSeqs = append(s.AccelSeqs, sq)
		s.Fab.SetRoutePair(sq.ID(), accelID, network.Config{Latency: 1, Ordered: true})
		return wide.Outstanding
	}
	sys := l.build(spec)
	n := 0
	var step func()
	step = func() {
		if n >= l.accesses {
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
		if ci >= l.accesses/4 {
			return
		}
		a := mem.Addr(0x100000 + (ci*192)%(1<<13))
		ci++
		sys.CPUSeqs[0].Store(a, byte(ci), func(*seq.Op) { sys.Eng.Schedule(40, cstep) })
	}
	sys.Eng.Schedule(3, cstep)
	sys.Eng.RunUntil(100_000_000)
	return xlateRow{host, wide.Merges, wide.Splits, wide.FalseShareRecalls, uint64(sys.Log.Count())}
}

func (t xlateTable) print(out io.Writer) {
	w := newTable(out)
	fmt.Fprintln(w, "E10: 128B accelerator blocks over the 64B host (merge/split translation)")
	fmt.Fprintln(w, "host\tmerged fills\tsplit writebacks\thalf-line recalls\terrors")
	for _, r := range t {
		fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%d\n", r.host, r.merges, r.splits, r.halfRecalls, r.errors)
	}
	w.Flush()
}

// recovery is E11, Guarantee 2c: an accelerator takes a line in M and
// then ignores the guard's Invalidate, and a CPU stores to the line.
type recovery struct {
	timeout sim.Time // the guard's 2c deadline
	latency sim.Time // the CPU store's issue to completion; 0 if it never completed
	g2c     uint64   // XG.G2c errors the guard reported
	audit   error    // the host's structural audit after the run
}

func timeout(l *lab) recovery {
	const line = mem.Addr(0x10000)
	r := recovery{timeout: 5_000}
	var att *fuzz.Attacker
	spec := l.spec(config.HostMESI, config.OrgXGFull1L)
	spec.AccelCores, spec.Timeout = 1, r.timeout
	spec.CustomAccel = func(s *config.System, accelID, xgID coherence.NodeID) func() int {
		att = fuzz.NewAttacker(accelID, xgID, s.Eng, s.Fab, l.seed+1, []mem.Addr{line})
		att.Policy = fuzz.InvIgnore
		return nil
	}
	sys := l.build(spec)
	att.Send(coherence.AGetM, line, nil)
	sys.Eng.RunUntilQuiet()
	start := sys.Eng.Now()
	sys.CPUSeqs[0].Store(line, 1, func(*seq.Op) { r.latency = sys.Eng.Now() - start })
	sys.Eng.RunUntilQuiet()
	r.g2c = sys.Log.ByCode["XG.G2c"]
	r.audit = sys.AuditHostOnly()
	return r
}

func (r recovery) print(out io.Writer) {
	w := newTable(out)
	fmt.Fprintln(w, "E11: a CPU store to a line a silent accelerator owns (Guarantee 2c)")
	fmt.Fprintln(w, "timeout (ticks)\tstore latency (ticks)\tXG.G2c errors\thost audit")
	audit := "clean"
	if r.audit != nil {
		audit = r.audit.Error()
	}
	fmt.Fprintf(w, "%d\t%d\t%d\t%s\n", r.timeout, r.latency, r.g2c, audit)
	w.Flush()
}

// filtering is E12, the §3.2 side-channel defense: CPU stores on a
// broadcast host whose Transactional guard holds a deny-all permission
// table, so every snoop can be answered without asking the accelerator.
type filtering struct {
	stores         int
	filtered, invs uint64 // snoops the guard answered; invalidations the accelerator saw
}

func snoop(l *lab) filtering {
	f := filtering{stores: 50}
	var att *fuzz.Attacker
	spec := l.spec(config.HostHammer, config.OrgXGTxn1L)
	spec.AccelCores, spec.Perms, spec.Timeout = 1, perm.NewTable(), 5_000
	spec.CustomAccel = func(s *config.System, accelID, xgID coherence.NodeID) func() int {
		att = fuzz.NewAttacker(accelID, xgID, s.Eng, s.Fab, l.seed+1, []mem.Addr{0x10000})
		att.Policy = fuzz.InvCorrectAck
		return nil
	}
	sys := l.build(spec)
	for j := 0; j < f.stores; j++ {
		sys.CPUSeqs[j%len(sys.CPUSeqs)].Store(mem.Addr(0x40000+j*mem.BlockBytes), byte(j), nil)
	}
	sys.Eng.RunUntilQuiet()
	for _, g := range sys.Guards {
		f.filtered += g.SnoopsFiltered
	}
	f.invs = att.Invs
	return f
}

func (f filtering) print(out io.Writer) {
	w := newTable(out)
	fmt.Fprintln(w, "E12: CPU stores to lines the accelerator may not touch (Hammer host, xg-txn/1L, deny-all permissions)")
	fmt.Fprintln(w, "CPU stores\tsnoops filtered at the guard\tinvalidations seen by the accelerator")
	fmt.Fprintf(w, "%d\t%d\t%d\n", f.stores, f.filtered, f.invs)
	w.Flush()
}

// The ablation sweeps' points.
var (
	guardLats = []sim.Time{0, 4, 16, 64}
	crossings = []sim.Time{20, 80, 320}
)

// ablation is A1-A4, the design parameters DESIGN.md §7 calls out, each
// swept over one kernel run.
type ablation struct {
	guardLat []sim.Time         // A1: cycles at each of guardLats
	crossing [][2]sim.Time      // A2: host-side and xg-full/1L cycles at each of crossings
	perms    [2]workload.Result // A3: without, then with the permission table
	sharing  [2]workload.Result // A4: xg-full/1L, then xg-full/2L
}

func ablate(l *lab) ablation {
	var a ablation
	blocked := l.kernel(workload.Blocked)
	// A1 and A2 run one accelerator core with its own latencies.
	withLat := func(org config.Org, set func(*config.Latencies)) sim.Time {
		lat := config.DefaultLatencies()
		set(&lat)
		spec := l.spec(config.HostMESI, org)
		spec.AccelCores, spec.Lat, spec.Perms = 1, &lat, workload.Perms(blocked)
		return l.run(l.build(spec), blocked).Cycles
	}
	// A1: the paper's negligible-overhead claim holds only while the
	// guard's processing latency stays small relative to the crossing.
	for _, gl := range guardLats {
		a.guardLat = append(a.guardLat, withLat(config.OrgXGFull1L, func(lat *config.Latencies) { lat.GuardLat = gl }))
	}
	// A2: as the crossing shrinks the host-side cache catches up; as it
	// grows, the accelerator-side cache behind the guard pulls away.
	for _, cl := range crossings {
		set := func(lat *config.Latencies) { lat.Crossing = cl }
		a.crossing = append(a.crossing, [2]sim.Time{withLat(config.OrgHostSide, set), withLat(config.OrgXGFull1L, set)})
	}
	// A3: without permissions the Transactional guard consults the
	// accelerator on every broadcast it cannot deduce (§3.2).
	for i, perms := range []*perm.Table{nil, workload.Perms(blocked)} {
		spec := l.spec(config.HostHammer, config.OrgXGTxn1L)
		spec.AccelCores, spec.Perms = 1, perms
		a.perms[i] = l.run(l.build(spec), blocked)
	}
	// A4: Fig. 2c vs 2d on a kernel whose cores co-read their input.
	streaming := l.kernel(workload.Streaming)
	for i, org := range []config.Org{config.OrgXGFull1L, config.OrgXGFull2L} {
		spec := l.spec(config.HostMESI, org)
		spec.AccelCores, spec.Perms = 2, workload.Perms(streaming)
		a.sharing[i] = l.run(l.build(spec), streaming)
	}
	return a
}

func (a ablation) print(out io.Writer) {
	w := newTable(out)
	fmt.Fprintln(w, "A1: runtime vs the guard's processing latency (MESI host, xg-full/1L, blocked kernel, 1 accel core)")
	fmt.Fprintln(w, "guard latency (ticks)\tcycles")
	for i, gl := range guardLats {
		fmt.Fprintf(w, "%d\t%d\n", gl, a.guardLat[i])
	}
	w.Flush()
	fmt.Fprintln(out)
	fmt.Fprintln(w, "A2: runtime vs the host-accelerator crossing latency (MESI host, blocked kernel, 1 accel core)")
	fmt.Fprintf(w, "crossing (ticks)\t%v cycles\t%v cycles\n", config.OrgHostSide, config.OrgXGFull1L)
	for i, cl := range crossings {
		fmt.Fprintf(w, "%d\t%d\t%d\n", cl, a.crossing[i][0], a.crossing[i][1])
	}
	w.Flush()
	fmt.Fprintln(out)
	fmt.Fprintln(w, "A3: permission-based snoop filtering (Hammer host, xg-txn/1L, blocked kernel, 1 accel core)")
	fmt.Fprintln(w, "permission table\tcycles\taccel consults")
	for i, name := range []string{"none", "workload regions"} {
		fmt.Fprintf(w, "%s\t%d\t%d\n", name, a.perms[i].Cycles, a.perms[i].SnoopsForwarded)
	}
	w.Flush()
	fmt.Fprintln(out)
	fmt.Fprintln(w, "A4: per-core guards vs one guard and a shared accelerator L2 (MESI host, streaming kernel, 2 accel cores)")
	fmt.Fprintln(w, "org\tcycles\tboundary bytes")
	for i, org := range []config.Org{config.OrgXGFull1L, config.OrgXGFull2L} {
		fmt.Fprintf(w, "%v\t%d\t%d\n", org, a.sharing[i].Cycles, a.sharing[i].CrossingBytes)
	}
	w.Flush()
}
