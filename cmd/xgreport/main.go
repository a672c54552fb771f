// Command xgreport renders a metrics JSON file (the -metrics output of
// xgsim or xgcampaign) into paper-style text tables: guard guarantee-check
// outcomes per Figure 1 guarantee, per-device recovery outcomes, crossing
// latency distributions, per-protocol host state-transition counts, and
// network occupancy.
//
// With -diff, it compares two runs instead: per-guarantee and
// per-accelerator deltas between a baseline metrics file and the
// current one, flagging every violation count that grew as a
// REGRESSION — the campaign-over-campaign triage view. It exits 1 on a
// regression and 2 on bad usage or an unreadable input: each input must be
// exactly one metrics object, so a null, a non-object or a second value
// after the first is refused, not reported as part of a run.
//
// Usage:
//
//	xgreport metrics.json
//	xgreport < metrics.json
//	xgreport -diff old.json new.json
//	xgreport -diff old.json < new.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"crossingguard/internal/obs"
)

func main() {
	diffPath := flag.String("diff", "", "baseline metrics JSON; render per-guarantee and per-accelerator deltas against it instead of the full report")
	flag.Parse()
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: xgreport [-diff old.json] [metrics.json]")
		os.Exit(2)
	}
	snap := readSnapshot(flag.Arg(0))
	if *diffPath != "" {
		if regressed := renderDiff(os.Stdout, readSnapshot(*diffPath), snap); regressed {
			os.Exit(1)
		}
		return
	}
	render(os.Stdout, snap)
}

// readSnapshot reads a metrics JSON file, or stdin when path is empty. A
// missing or unparseable input exits 2, so a -diff gate can tell it from
// a regression (exit 1).
func readSnapshot(path string) obs.Snapshot {
	var in io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xgreport:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	snap, err := obs.ReadSnapshot(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xgreport:", err)
		os.Exit(2)
	}
	return snap
}

// guaranteeNames maps violation codes to the Figure 1 prose, so the
// outcome table reads like the paper.
var guaranteeNames = []struct{ code, prose string }{
	{"XG.G0a", "no access without page permission"},
	{"XG.G0b", "no writes to read-only pages"},
	{"XG.G1a", "requests consistent with stable state"},
	{"XG.G1b", "one transaction per address"},
	{"XG.G2a", "responses consistent with stable state"},
	{"XG.G2b", "no response without a request"},
	{"XG.G2c", "responses within bounded time"},
	{"XG.BadMessage", "non-interface message rejected"},
	{"XG.BadSource", "wrong-source message rejected"},
}

func render(w io.Writer, s obs.Snapshot) {
	renderGuarantees(w, s)
	renderPerAccel(w, s)
	renderRobustness(w, s)
	renderRecovery(w, s)
	renderCrossings(w, s)
	renderAnatomy(w, s)
	renderStates(w, s)
	renderNetwork(w, s)
}

// renderRobustness prints the fault-injection and graceful-degradation
// counters a chaos campaign produces (docs/PROTOCOL.md "Fault model &
// quarantine semantics"). Absent from non-chaos runs, so the section
// only renders when something was injected or fenced.
func renderRobustness(w io.Writer, s obs.Snapshot) {
	rows := []struct{ key, label string }{
		{"fault.injected", "faults injected (all kinds)"},
		{"fault.drop", "  dropped"},
		{"fault.dup", "  duplicated"},
		{"fault.corrupt", "  bit-corrupted"},
		{"fault.delay", "  delayed"},
		{"fault.reorder", "  reordered"},
		{"guard.recall.retry", "recall retries (watchdog re-sends)"},
		{"guard.quarantine.entered", "accelerators quarantined"},
		{"guard.quarantine.fenced_lines", "  lines fenced at entry"},
		{"guard.quarantine.recalls", "  recalls answered from trusted state"},
		{"guard.quarantine.nacks", "  requests nacked while fenced"},
		{"guard.quarantine.dropped", "  late responses swallowed"},
	}
	if s.Counters["fault.injected"] == 0 && s.Counters["guard.quarantine.entered"] == 0 &&
		s.Counters["guard.recall.retry"] == 0 {
		return
	}
	fmt.Fprintln(w, "robustness (fault injection and graceful degradation)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, r := range rows {
		if n, ok := s.Counters[r.key]; ok {
			fmt.Fprintf(tw, "  %s\t%d\n", r.label, n)
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// recoveryRows are the quarantine-recovery lifecycle counters, in the
// order the state machine visits them (docs/PROTOCOL.md "Reset &
// reintegration semantics").
var recoveryRows = []struct{ key, label string }{
	{"guard.recovery.backoff", "recovery attempts scheduled (after backoff)"},
	{"guard.recovery.drained_lines", "  lines drained before reset"},
	{"guard.recovery.reintegrated", "devices reintegrated (fresh epoch)"},
	{"guard.recovery.permanent", "devices permanently quarantined"},
}

// renderRecovery prints the quarantine-recovery lifecycle: how many
// backed-off recovery attempts ran, how many lines each drain flushed,
// how many devices were readmitted under a fresh epoch, and how many
// exhausted their budget into permanent quarantine — in aggregate and
// per device. Absent unless recovery actually fired.
func renderRecovery(w io.Writer, s obs.Snapshot) {
	any := false
	for _, r := range recoveryRows {
		if s.Counters[r.key] > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintln(w, "quarantine recovery (fence -> drain -> reset -> reintegrate)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, r := range recoveryRows {
		if n, ok := s.Counters[r.key]; ok {
			fmt.Fprintf(tw, "  %s\t%d\n", r.label, n)
		}
	}
	tw.Flush()

	// Per-device rows from the @a<N> variants, plus each device's stale
	// stragglers — the messages the epoch fence rejected after its reset.
	type devRow struct {
		backoff, drained, reintegrated, permanent, stale uint64
	}
	devs := map[string]*devRow{}
	get := func(tag string) *devRow {
		r, ok := devs[tag]
		if !ok {
			r = &devRow{}
			devs[tag] = r
		}
		return r
	}
	for name, n := range s.Counters {
		base, tag, ok := accelTagOf(name)
		if !ok {
			continue
		}
		switch base {
		case "guard.recovery.backoff":
			get(tag).backoff += n
		case "guard.recovery.drained_lines":
			get(tag).drained += n
		case "guard.recovery.reintegrated":
			get(tag).reintegrated += n
		case "guard.recovery.permanent":
			get(tag).permanent += n
		case "guard.violation.XG.StaleEpoch":
			get(tag).stale += n
		}
	}
	if len(devs) > 0 {
		tags := make([]string, 0, len(devs))
		for tag := range devs {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  accel\tattempts\tdrained\treintegrated\tstale dropped\tfinal")
		for _, tag := range tags {
			r := devs[tag]
			final := "healthy"
			if r.permanent > 0 {
				final = "permanent quarantine"
			}
			fmt.Fprintf(tw, "  a%s\t%d\t%d\t%d\t%d\t%s\n",
				tag, r.backoff, r.drained, r.reintegrated, r.stale, final)
		}
		tw.Flush()
	}
	fmt.Fprintln(w)
}

// accelTagOf splits a per-accelerator metric name ("guard.check.pass@a1")
// into its base name and device tag; ok is false for untagged metrics.
func accelTagOf(name string) (base, tag string, ok bool) {
	i := strings.LastIndex(name, "@a")
	if i < 0 {
		return name, "", false
	}
	return name[:i], name[i+2:], true
}

// renderPerAccel prints the per-accelerator guarantee-outcome table from
// the "@a<N>"-suffixed counters every guard emits alongside the
// aggregates. Rendered only for multi-device runs (two or more tags).
func renderPerAccel(w io.Writer, s obs.Snapshot) {
	type accRow struct {
		pass, violations uint64
		byCode           map[string]uint64
	}
	rows := map[string]*accRow{}
	get := func(tag string) *accRow {
		r, ok := rows[tag]
		if !ok {
			r = &accRow{byCode: map[string]uint64{}}
			rows[tag] = r
		}
		return r
	}
	for name, n := range s.Counters {
		base, tag, ok := accelTagOf(name)
		if !ok {
			continue
		}
		switch {
		case base == "guard.check.pass":
			get(tag).pass += n
		case strings.HasPrefix(base, "guard.violation."):
			r := get(tag)
			r.violations += n
			r.byCode[strings.TrimPrefix(base, "guard.violation.")] += n
		}
	}
	if len(rows) < 2 {
		return
	}
	tags := make([]string, 0, len(rows))
	for tag := range rows {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	fmt.Fprintln(w, "per-accelerator guarantee outcomes (one guard per device)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  accel\tpass\tviolations\tby code")
	for _, tag := range tags {
		r := rows[tag]
		var codes []string
		for c := range r.byCode {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		parts := make([]string, len(codes))
		for i, c := range codes {
			parts[i] = fmt.Sprintf("%s=%d", c, r.byCode[c])
		}
		detail := strings.Join(parts, " ")
		if detail == "" {
			detail = "-"
		}
		fmt.Fprintf(tw, "  a%s\t%d\t%d\t%s\n", tag, r.pass, r.violations, detail)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func renderGuarantees(w io.Writer, s obs.Snapshot) {
	pass := s.Counters["guard.check.pass"]
	var total uint64
	for name, n := range s.Counters {
		if strings.HasPrefix(name, "guard.violation.") && !strings.Contains(name, "@a") {
			total += n
		}
	}
	fmt.Fprintln(w, "guarantee-check outcomes (Crossing Guard, paper Fig. 1)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  check\tguarantee\tcount")
	fmt.Fprintf(tw, "  pass\trequest accepted, all guarantees hold\t%d\n", pass)
	seen := map[string]bool{}
	for _, g := range guaranteeNames {
		key := "guard.violation." + g.code
		seen[key] = true
		if n, ok := s.Counters[key]; ok {
			fmt.Fprintf(tw, "  %s\t%s\t%d\n", g.code, g.prose, n)
		}
	}
	// Codes the table above doesn't know (future guarantees) still print.
	var extra []string
	for name := range s.Counters {
		if strings.HasPrefix(name, "guard.violation.") && !seen[name] && !strings.Contains(name, "@a") {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(tw, "  %s\t\t%d\n", strings.TrimPrefix(name, "guard.violation."), s.Counters[name])
	}
	fmt.Fprintf(tw, "  total violations\t\t%d\n", total)
	tw.Flush()
	fmt.Fprintln(w)
}

func renderCrossings(w io.Writer, s obs.Snapshot) {
	rows := []struct{ key, label string }{
		{"xg.crossing.ticks", "guard crossing (request -> grant)"},
		{"xlate.crossing.ticks", "block-xlate crossing (wide request -> last grant)"},
	}
	any := false
	for _, r := range rows {
		if h, ok := s.Histograms[r.key]; ok && h.N > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintln(w, "crossing latency (ticks)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  crossing\tn\tmean\tp50\tp95\tp99\tmin\tmax")
	for _, r := range rows {
		h, ok := s.Histograms[r.key]
		if !ok || h.N == 0 {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%d\t%.1f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			r.label, h.N, h.Mean, h.P50, h.P95, h.P99, h.Min, h.Max)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// anatomyRows are the per-phase crossing-span histograms, in causal
// order: the request's queue wait, the guarantee check, the grant path,
// recall round-trips with their watchdog-retry tails, then the recovery
// state machine. Guards record them only under span tracing
// (-spans / -perfetto), so the section is absent from span-free runs.
var anatomyRows = []struct{ key, label string }{
	{"xg.span.request.ticks", "request wait (arrival -> check start)"},
	{"xg.span.check.ticks", "guarantee check (check start -> host forward)"},
	{"xg.span.grant.ticks", "grant path (host forward -> grant sent)"},
	{"xg.span.recall.ticks", "recall round-trip (recall sent -> resolved)"},
	{"xg.span.retry.ticks", "recall retry tail (watchdog re-send -> resolved)"},
	{"xg.span.recovery.backoff.ticks", "recovery backoff (quarantine -> drain start)"},
	{"xg.span.recovery.drain.ticks", "recovery drain (in-flight settle + table flush)"},
	{"xg.span.recovery.reset.ticks", "recovery reset (drain done -> reintegrated)"},
	{"xg.span.recovery.total.ticks", "recovery total (quarantine -> reintegrated)"},
}

// renderAnatomy prints the crossing latency anatomy: deterministic
// per-phase quantiles answering "where did this crossing's ticks go?",
// in aggregate and (for multi-device runs) per accelerator. The
// quantiles come from merged histogram samples, so the table is
// byte-identical across -workers values.
func renderAnatomy(w io.Writer, s obs.Snapshot) {
	any := false
	for _, r := range anatomyRows {
		if h, ok := s.Histograms[r.key]; ok && h.N > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintln(w, "crossing latency anatomy (per-phase span quantiles, ticks)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  phase\tn\tp50\tp90\tp99\tmax")
	for _, r := range anatomyRows {
		h, ok := s.Histograms[r.key]
		if !ok || h.N == 0 {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%d\t%.0f\t%.1f\t%.1f\t%.0f\n",
			r.label, h.N, h.P50, h.P90, h.P99, h.Max)
	}
	tw.Flush()

	// Per-device rows from the @a<N> histogram variants; rendered only
	// for multi-device runs (a single device's rows equal the aggregate).
	devs := map[string]bool{}
	for name, h := range s.Histograms {
		if base, tag, ok := accelTagOf(name); ok && h.N > 0 &&
			strings.HasPrefix(base, "xg.span.") {
			devs[tag] = true
		}
	}
	if len(devs) >= 2 {
		tags := make([]string, 0, len(devs))
		for tag := range devs {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  accel\tphase\tn\tp50\tp90\tp99\tmax")
		for _, tag := range tags {
			for _, r := range anatomyRows {
				h, ok := s.Histograms[r.key+"@a"+tag]
				if !ok || h.N == 0 {
					continue
				}
				fmt.Fprintf(tw, "  a%s\t%s\t%d\t%.0f\t%.1f\t%.1f\t%.0f\n",
					tag, r.label, h.N, h.P50, h.P90, h.P99, h.Max)
			}
		}
		tw.Flush()
	}
	fmt.Fprintln(w)
}

// statePrefixes are the host-protocol transition-count namespaces wired
// up by config.Build.
var statePrefixes = []struct{ prefix, label string }{
	{"hammer.cache.state.", "Hammer cache"},
	{"hammer.dir.state.", "Hammer directory"},
	{"mesi.L1.state.", "MESI L1"},
	{"mesi.L2.state.", "MESI L2/directory"},
}

func renderStates(w io.Writer, s obs.Snapshot) {
	type row struct {
		state string
		n     uint64
	}
	any := false
	for _, p := range statePrefixes {
		var rows []row
		for name, n := range s.Counters {
			if strings.HasPrefix(name, p.prefix) {
				rows = append(rows, row{strings.TrimPrefix(name, p.prefix), n})
			}
		}
		if len(rows) == 0 {
			continue
		}
		if !any {
			fmt.Fprintln(w, "host state-transition counts (events observed per resulting state)")
			any = true
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].state < rows[j].state })
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  %s:\t", p.label)
		for _, r := range rows {
			fmt.Fprintf(tw, "%s=%d\t", r.state, r.n)
		}
		fmt.Fprintln(tw)
		tw.Flush()
	}
	if any {
		fmt.Fprintln(w)
	}
}

// delta renders a signed difference the way a triage eye scans for it:
// "-" for no change, "+n"/"-n" otherwise.
func delta(old, new uint64) string {
	switch {
	case new == old:
		return "-"
	case new > old:
		return fmt.Sprintf("+%d", new-old)
	default:
		return fmt.Sprintf("-%d", old-new)
	}
}

// renderDiff compares two runs: per-guarantee and per-accelerator
// deltas between the baseline and current snapshots. Every violation
// count that grew is flagged REGRESSION; the return value reports
// whether any were found, so -diff doubles as a CI gate.
func renderDiff(w io.Writer, old, new obs.Snapshot) (regressed bool) {
	fmt.Fprintln(w, "guarantee-check deltas (baseline -> current)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  check\tbaseline\tcurrent\tdelta\t")
	fmt.Fprintf(tw, "  pass\t%d\t%d\t%s\t\n",
		old.Counters["guard.check.pass"], new.Counters["guard.check.pass"],
		delta(old.Counters["guard.check.pass"], new.Counters["guard.check.pass"]))
	// Union of untagged violation codes across both runs, known Figure 1
	// codes first in table order, then any extras alphabetically.
	union := map[string]bool{}
	for _, s := range []obs.Snapshot{old, new} {
		for name := range s.Counters {
			if strings.HasPrefix(name, "guard.violation.") && !strings.Contains(name, "@a") {
				union[strings.TrimPrefix(name, "guard.violation.")] = true
			}
		}
	}
	ordered := make([]string, 0, len(union))
	for _, g := range guaranteeNames {
		if union[g.code] {
			ordered = append(ordered, g.code)
			delete(union, g.code)
		}
	}
	var extra []string
	for code := range union {
		extra = append(extra, code)
	}
	sort.Strings(extra)
	ordered = append(ordered, extra...)
	for _, code := range ordered {
		key := "guard.violation." + code
		o, n := old.Counters[key], new.Counters[key]
		mark := ""
		if n > o {
			mark = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%s\t%s\n", code, o, n, delta(o, n), mark)
	}
	tw.Flush()
	fmt.Fprintln(w)

	// Per-accelerator deltas from the @a<N> counters: which device a
	// regression belongs to is the first triage question in a
	// multi-device campaign.
	type accDelta struct{ oldPass, newPass, oldViol, newViol uint64 }
	devs := map[string]*accDelta{}
	get := func(tag string) *accDelta {
		r, ok := devs[tag]
		if !ok {
			r = &accDelta{}
			devs[tag] = r
		}
		return r
	}
	fold := func(s obs.Snapshot, pass func(*accDelta, uint64), viol func(*accDelta, uint64)) {
		for name, n := range s.Counters {
			base, tag, ok := accelTagOf(name)
			if !ok {
				continue
			}
			switch {
			case base == "guard.check.pass":
				pass(get(tag), n)
			case strings.HasPrefix(base, "guard.violation."):
				viol(get(tag), n)
			}
		}
	}
	fold(old,
		func(r *accDelta, n uint64) { r.oldPass += n },
		func(r *accDelta, n uint64) { r.oldViol += n })
	fold(new,
		func(r *accDelta, n uint64) { r.newPass += n },
		func(r *accDelta, n uint64) { r.newViol += n })
	if len(devs) > 0 {
		tags := make([]string, 0, len(devs))
		for tag := range devs {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		fmt.Fprintln(w, "per-accelerator deltas")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  accel\tpass\tΔpass\tviolations\tΔviolations\t")
		for _, tag := range tags {
			r := devs[tag]
			mark := ""
			if r.newViol > r.oldViol {
				mark = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(tw, "  a%s\t%d\t%s\t%d\t%s\t%s\n",
				tag, r.newPass, delta(r.oldPass, r.newPass),
				r.newViol, delta(r.oldViol, r.newViol), mark)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}

	if regressed {
		fmt.Fprintln(w, "verdict: REGRESSION (violations grew vs baseline)")
	} else {
		fmt.Fprintln(w, "verdict: clean (no violation count grew vs baseline)")
	}
	return regressed
}

func renderNetwork(w io.Writer, s obs.Snapshot) {
	msgs, haveMsgs := s.Counters["net.msgs"]
	if !haveMsgs {
		return
	}
	fmt.Fprintln(w, "network")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  messages delivered\t%d\n", msgs)
	fmt.Fprintf(tw, "  bytes moved\t%d\n", s.Counters["net.bytes"])
	fmt.Fprintf(tw, "  messages dropped\t%d\n", s.Counters["net.dropped"])
	if g, ok := s.Gauges["net.inflight"]; ok {
		fmt.Fprintf(tw, "  peak in-flight\t%d\n", g.Max)
	}
	if h, ok := s.Histograms["net.channel.depth"]; ok && h.N > 0 {
		fmt.Fprintf(tw, "  channel depth\tmean %.2f, p95 %.0f, max %.0f\n", h.Mean, h.P95, h.Max)
	}
	tw.Flush()
}
