// Command spanlint is the CI gate for causal span artifacts. It checks
// the span invariant — every span-begin has exactly one matching
// span-end, no phase or end event dangles, no id is reused while live —
// over the artifacts a traced campaign exports:
//
//   - a campaign trace JSONL (xgcampaign's -trace flag): lines are
//     parsed back into per-shard event streams and each shard's
//     stream must satisfy obs.SpanBalance. The trace
//     must have been captured with a -tracetail large enough to hold
//     the whole run; a truncated ring legitimately orphans events, so
//     spanlint on a default-sized tail is a usage error, not a bug.
//   - a Perfetto/Chrome-trace JSON (the -perfetto flag, selected with
//     -perfetto here too): the file must parse, every trace event must
//     use a phase type the exporter emits, every flow-start must have a
//     matching flow-finish, and at least -minspans span slices must be
//     present.
//
// Usage:
//
//	go run ./internal/tools/spanlint trace.jsonl
//	go run ./internal/tools/spanlint -perfetto -minspans 1 timeline.json
//
// Exit status 0 when every check passes, 1 otherwise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"crossingguard/internal/coherence"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

var (
	perfetto = flag.Bool("perfetto", false, "treat the input as a Perfetto/Chrome-trace JSON export instead of a campaign trace JSONL")
	minspans = flag.Int("minspans", 0, "minimum number of span slices a Perfetto export must contain")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: spanlint [-perfetto] [-minspans N] <file>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "spanlint:", err)
		os.Exit(1)
	}
	defer f.Close()
	if *perfetto {
		err = lintPerfetto(f)
	} else {
		err = lintTrace(f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spanlint: %s: %v\n", flag.Arg(0), err)
		os.Exit(1)
	}
	fmt.Printf("spanlint: %s: OK\n", flag.Arg(0))
}

// traceLine mirrors the fields obs.Event.AppendJSON writes (plus the
// campaign exporter's shard tag); only the span-relevant ones are kept.
type traceLine struct {
	Shard   int    `json:"shard"`
	Tick    uint64 `json:"tick"`
	Comp    string `json:"comp"`
	Kind    string `json:"kind"`
	Accel   int    `json:"accel"`
	From    int64  `json:"from"`
	Span    uint64 `json:"span"`
	Payload string `json:"payload"`
}

// spanKinds maps the wire names of the three span event kinds back to
// their obs values; every other kind is irrelevant to the balance check.
var spanKinds = map[string]obs.Kind{
	"span-begin": obs.KindSpanBegin,
	"span-phase": obs.KindSpanPhase,
	"span-end":   obs.KindSpanEnd,
}

// lintTrace parses a campaign trace JSONL back into per-shard event
// streams and runs the span-balance invariant on each.
func lintTrace(f *os.File) error {
	perShard := map[int][]obs.Event{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		kind, isSpan := spanKinds[l.Kind]
		if !isSpan {
			continue
		}
		perShard[l.Shard] = append(perShard[l.Shard], obs.Event{
			Tick: sim.Time(l.Tick), Component: l.Comp, Kind: kind,
			Accel: l.Accel, From: coherence.NodeID(l.From),
			Span: l.Span, Payload: l.Payload,
		})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	shards := make([]int, 0, len(perShard))
	for s := range perShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	total := 0
	for _, s := range shards {
		if err := obs.SpanBalance(perShard[s]); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		total += len(perShard[s])
	}
	fmt.Printf("spanlint: %d span events across %d shards, all balanced\n", total, len(shards))
	return nil
}

// perfettoFile is the envelope obs.WritePerfetto emits.
type perfettoFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Ph  string `json:"ph"`
		Cat string `json:"cat"`
		ID  string `json:"id"`
		Dur uint64 `json:"dur"`
	} `json:"traceEvents"`
}

// lintPerfetto validates a Perfetto export structurally: known phase
// types only, every flow-start paired with a flow-finish, and at least
// -minspans span slices.
func lintPerfetto(f *os.File) error {
	var pf perfettoFile
	if err := json.NewDecoder(f).Decode(&pf); err != nil {
		return err
	}
	if len(pf.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}
	// The exporter emits complete slices (X), flow start/finish (s/f),
	// instants (i), and metadata (M) — anything else means the export
	// format drifted without this lint keeping up.
	starts, finishes := map[string]int{}, map[string]int{}
	spans := 0
	for i, e := range pf.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Cat == "xg.span" {
				spans++
			}
		case "s":
			starts[e.ID]++
		case "f":
			finishes[e.ID]++
		case "i", "M":
		default:
			return fmt.Errorf("event %d: unexpected phase type %q", i, e.Ph)
		}
	}
	for id, n := range starts {
		if finishes[id] != n {
			return fmt.Errorf("flow %q: %d starts but %d finishes", id, n, finishes[id])
		}
	}
	for id, n := range finishes {
		if starts[id] != n {
			return fmt.Errorf("flow %q: %d finishes but %d starts", id, n, starts[id])
		}
	}
	if spans < *minspans {
		return fmt.Errorf("%d span slices, want at least %d", spans, *minspans)
	}
	fmt.Printf("spanlint: %d events, %d span slices, %d flows, all paired\n",
		len(pf.TraceEvents), spans, len(starts))
	return nil
}
