// Command xgcheck verifies a recorded observation log offline against
// the coherence invariants: per-block SWMR, the data-value invariant
// (every load returns the most recent store in the happens-before order
// induced by ticks and per-core program order), and write-serialization.
// The log is the xgobs format written by the campaign CLIs' -obs flag
// (v2, or v3 when guard epochs are present); each shard in the log is
// checked independently and the first violating edge per location is
// reported with the two offending records.
//
// Usage:
//
//	xgcheck [-workers N] [-v] [file.obs]
//
// With no file (or "-"), the log is read from stdin. -v prints every
// shard's verdict line; the default prints only failing shards plus the
// summary. Exit codes follow the campaign contract: 0 every shard's
// history is consistent, 1 at least one violation, 2 usage or parse
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"crossingguard/internal/campaign"
	"crossingguard/internal/consistency"
)

var (
	workers = flag.Int("workers", 0, "checker worker goroutines per shard (0 = GOMAXPROCS); the verdict is identical for any value")
	verbose = flag.Bool("v", false, "print every shard's verdict, not just failures")
)

func main() {
	flag.Parse()
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "xgcheck: at most one input file")
		os.Exit(campaign.ExitUsage)
	}
	var in io.Reader = os.Stdin
	name := "stdin"
	if flag.NArg() == 1 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "xgcheck:", err)
			os.Exit(campaign.ExitUsage)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}
	shards, err := consistency.ReadLog(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xgcheck:", err)
		os.Exit(campaign.ExitUsage)
	}

	records, failed := 0, 0
	for _, sh := range shards {
		v := consistency.Check(sh.Recs, consistency.Options{Workers: *workers})
		records += v.Records
		if v.OK() {
			if *verbose {
				fmt.Printf("shard %d: %s", sh.Shard, v.Render())
			}
			continue
		}
		failed++
		fmt.Printf("shard %d: %s", sh.Shard, v.Render())
	}
	if failed > 0 {
		fmt.Printf("%s: %d shards, %d records: %d shards FAILED the offline invariant check\n",
			name, len(shards), records, failed)
		os.Exit(campaign.ExitViolation)
	}
	fmt.Printf("%s: %d shards, %d records: all histories consistent (swmr, data-value, write-serialization)\n",
		name, len(shards), records)
}
