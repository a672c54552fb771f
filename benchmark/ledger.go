package main

import (
	"math"
	"runtime"
	"strings"
)

// The allocation ledger answers "which layer allocates": the difference
// of two runtime.MemProfile snapshots around one batch is attributed,
// record by record, to the innermost crossingguard/internal/<pkg> frame.
//
// ISSUE 11 asked for runtime.MemProfileRate = 1 (every allocation
// recorded). Measured here, that costs about 4 us per allocation: 33 s for
// one stress_xg batch, which the contract's run-time cap cannot hold. So
// the ledger samples one allocation per ledgerRate bytes and scales each
// record back with the runtime's own estimator (the one pprof applies);
// ledger.coverage reports the sum against the exact heap-object count of
// the same window, and has stayed within 1% of it.

// ledgerRate is the mean number of allocated bytes between samples. The
// stress batches allocate ~56 B objects, so about one allocation in nine
// is recorded: hundreds of thousands of samples per batch.
const ledgerRate = 512

// Function-name prefixes of the simulator's packages and of this package
// (which is "main" in the benchmark binary, its import path under go test).
const (
	internalPrefix = "crossingguard/internal/"
	harnessPrefix  = "crossingguard/benchmark."
)

// ledger is one batch's allocations by layer.
type ledger struct {
	byLayer map[string]uint64
	// profiled is the sum over layers of the scaled sample counts; counted
	// is the heap-object delta the runtime reports for the same window
	// (MemStats.Mallocs).
	profiled, counted uint64
	// strays lists internal packages outside ledgerLayers; their
	// allocations are folded into "runtime" so the rows still sum.
	strays []string
}

func (l *ledger) coverage() float64 { return ratio(float64(l.profiled), float64(l.counted)) }

type stackKey [32]uintptr

// sampled is one stack's cumulative sampled allocations.
type sampled struct{ objects, bytes int64 }

// scaled estimates how many allocations n samples totalling size bytes
// stand for: an object of size s is sampled with probability
// 1-exp(-s/rate), the Poisson process runtime.MemProfileRate describes.
func (d sampled) scaled() float64 {
	if d.objects <= 0 {
		return 0
	}
	avg := float64(d.bytes) / float64(d.objects)
	return float64(d.objects) / (1 - math.Exp(-avg/ledgerRate))
}

func profileSnapshot() map[stackKey]sampled {
	// The profile is published at the end of a collection, so collect first.
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			out := make(map[stackKey]sampled, n)
			for _, r := range recs[:n] {
				s := out[r.Stack0]
				out[r.Stack0] = sampled{s.objects + r.AllocObjects, s.bytes + r.AllocBytes}
			}
			return out
		}
	}
}

// allocLedger runs batch under dense allocation sampling. Each P keeps the
// previous rate until its next sample point, at most half a megabyte of
// allocation away: nothing beside the hundreds of megabytes of a batch.
func allocLedger(batch func()) ledger {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = ledgerRate
	defer func() { runtime.MemProfileRate = old }()

	before := profileSnapshot()
	h0 := readHeap()
	batch()
	counted := readHeap().sub(h0).Objects
	after := profileSnapshot()

	known := make(map[string]bool, len(ledgerLayers))
	for _, l := range ledgerLayers {
		known[l] = true
	}
	out := ledger{byLayer: map[string]uint64{}, counted: counted}
	strays := map[string]bool{}
	byLayer := map[string]float64{}
	for key, a := range after {
		b := before[key]
		n := sampled{a.objects - b.objects, a.bytes - b.bytes}.scaled()
		if n == 0 {
			continue
		}
		l := stackLayer(key)
		if !known[l] {
			strays[l] = true
			l = "runtime"
		}
		byLayer[l] += n
	}
	for l, n := range byLayer {
		out.byLayer[l] = uint64(math.Round(n))
		out.profiled += out.byLayer[l]
	}
	out.strays = sortedNames(strays)
	return out
}

// stackLayer names the layer of an allocation stack (innermost frame
// first): the first frame inside crossingguard/internal decides; a stack
// that only touches the harness is "benchmark", anything else "runtime".
func stackLayer(key stackKey) string {
	depth := 0
	for depth < len(key) && key[depth] != 0 {
		depth++
	}
	frames := runtime.CallersFrames(key[:depth])
	harness := false
	for {
		f, more := frames.Next()
		if pkg, ok := strings.CutPrefix(f.Function, internalPrefix); ok {
			// "hostproto/hammer.(*Cache).Recv" -> "hostproto.hammer"
			if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
				pkg = pkg[:dot]
			}
			return strings.ReplaceAll(pkg, "/", ".")
		}
		if strings.HasPrefix(f.Function, harnessPrefix) || strings.HasPrefix(f.Function, "main.") {
			harness = true
		}
		if !more {
			break
		}
	}
	if harness {
		return "benchmark"
	}
	return "runtime"
}
