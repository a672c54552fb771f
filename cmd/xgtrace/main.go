// Command xgtrace runs a chosen configuration under a small workload and
// prints the coherence-message trace — optionally filtered to a single
// cache line — the debugging view protocol engineers actually use. It
// rides the same structured trace bus the stress campaigns attach for
// failure artifacts; -jsonl exports the full event stream for machine
// consumption.
//
// Usage:
//
//	xgtrace [-host hammer|mesi] [-org xg-full/1L|...] [-kind graph|...]
//	        [-accels N]
//	        [-watch 0xADDR] [-accesses N] [-tail N] [-jsonl out.jsonl]
//
// With -accels 2 the machine gets two accelerator devices, each behind
// its own guard; the cross-accelerator kernels (-kind cross-share or
// false-share) then make one line migrate guard-to-guard, and -watch
// shows the full recall/grant conversation for it (the walk-through in
// docs/SCALING.md is produced this way).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"crossingguard/internal/config"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
	"crossingguard/internal/workload"
)

var (
	hostFlag = flag.String("host", "mesi", "host protocol: hammer or mesi")
	orgFlag  = flag.String("org", "xg-full/1L", "organization (see config.AllOrgs)")
	kindFlag = flag.String("kind", "graph", "workload kind")
	accels   = flag.Int("accels", 1, "accelerator devices, one guard each")
	watch    = flag.String("watch", "", "hex line address to filter (e.g. 0x100040)")
	accesses = flag.Int("accesses", 200, "accelerator accesses per core")
	tailN    = flag.Int("tail", 120, "print at most the last N matching events")
	jsonlOut = flag.String("jsonl", "", "write the full event stream as JSONL to this file")
)

func main() {
	flag.Parse()

	var host config.HostKind
	switch *hostFlag {
	case "hammer":
		host = config.HostHammer
	case "mesi":
		host = config.HostMESI
	default:
		fmt.Fprintf(os.Stderr, "xgtrace: unknown host %q (want hammer or mesi)\n", *hostFlag)
		os.Exit(2)
	}
	if err := config.CheckSize(2, 2, *accels); err != nil {
		fmt.Fprintln(os.Stderr, "xgtrace:", err)
		os.Exit(2)
	}
	var org config.Org
	found := false
	for _, o := range config.AllOrgs {
		if o.String() == *orgFlag {
			org, found = o, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "xgtrace: unknown org %q; options:", *orgFlag)
		for _, o := range config.AllOrgs {
			fmt.Fprintf(os.Stderr, " %v", o)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	var kind workload.Kind
	found = false
	for _, k := range append(append([]workload.Kind{}, workload.AllKinds...), workload.MultiKinds...) {
		if k.String() == *kindFlag {
			kind, found = k, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "xgtrace: unknown kind %q\n", *kindFlag)
		os.Exit(2)
	}

	cfg := workload.DefaultConfig(kind)
	cfg.AccessesPerCore = *accesses
	sys := config.Build(config.Spec{Host: host, Org: org, CPUs: 2, AccelCores: 2,
		Accels: *accels, Seed: 1, Perms: workload.Perms(cfg)})
	events := &obs.Slice{}
	sys.Fab.Bus = obs.NewBus(events)

	res, err := workload.Run(sys, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xgtrace: %v\n", err)
		os.Exit(1)
	}

	var filter mem.Addr
	haveFilter := false
	if *watch != "" {
		a, err := strconv.ParseUint(strings.TrimPrefix(*watch, "0x"), 16, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xgtrace: bad -watch address: %v\n", err)
			os.Exit(2)
		}
		filter = mem.Addr(a).Line()
		haveFilter = true
	}

	if *jsonlOut != "" {
		if err := writeJSONL(*jsonlOut, events.Events); err != nil {
			fmt.Fprintf(os.Stderr, "xgtrace: %v\n", err)
			os.Exit(1)
		}
	}

	deliveries := uint64(0)
	var lines []string
	for _, e := range events.Events {
		if e.Kind != obs.KindRecv {
			continue // one line per delivery keeps the view readable
		}
		deliveries++
		if haveFilter && e.Addr.Line() != filter {
			continue
		}
		lines = append(lines, e.String())
	}
	if len(lines) > *tailN {
		fmt.Printf("... (%d earlier deliveries elided)\n", len(lines)-*tailN)
		lines = lines[len(lines)-*tailN:]
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Printf("\n%v/%v/%v: %d accel accesses in %d ticks; avg latency %.1f; %d deliveries traced\n",
		host, org, kind, res.AccelAccesses, res.Cycles, res.AccelAvgLat, deliveries)
}

func writeJSONL(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	j := obs.NewJSONL(f)
	for _, e := range events {
		if err := j.Emit(e); err != nil {
			f.Close()
			return err
		}
	}
	if err := j.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
