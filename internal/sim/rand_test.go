package sim_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"crossingguard/internal/sim"
)

// drawMix draws from r the way the simulator's agents do: an odd-length
// Read (which leaves bytes buffered in the Rand), Int63n, Intn and Float64.
func drawMix(r *rand.Rand) {
	var b [5]byte
	r.Read(b[:])
	r.Int63n(1000)
	r.Intn(7)
	r.Float64()
}

// sameDraws reports the first of n draws where a and b differ, -1 when
// none does. Every fourth draw is a 3-byte Read, starting with the first:
// a stream that kept its last owner's buffered bytes shows there.
func sameDraws(a, b *rand.Rand, n int) int {
	var x, y [3]byte
	for i := 0; i < n; i++ {
		var same bool
		switch i % 4 {
		case 0:
			a.Read(x[:])
			b.Read(y[:])
			same = bytes.Equal(x[:], y[:])
		case 1:
			same = a.Int63() == b.Int63()
		case 2:
			same = a.Intn(1000) == b.Intn(1000)
		default:
			same = a.Float64() == b.Float64()
		}
		if !same {
			return i
		}
	}
	return -1
}

// A stream a reset engine hands out again is, for its next run, exactly
// the stream a fresh source with its seed draws: nothing of the last run's
// position or buffered bytes is left. The same calls get the same streams
// back, in order, and a call past them draws a new one; re-seeding with
// the same seed again and again stays exact.
func TestRecycledStreamIsFresh(t *testing.T) {
	for _, seed := range []int64{1, 7, 131, 1 << 40, -3} {
		e := sim.NewEngine()
		var first []*rand.Rand
		for i := 0; i < 4; i++ {
			r := e.Rand(seed*10 + int64(i))
			drawMix(r)
			first = append(first, r)
		}
		e.Reset()
		for i := 0; i < 5; i++ {
			r := e.Rand(seed + int64(i))
			if i < len(first) && r != first[i] {
				t.Fatalf("seed %d: call %d after Reset drew a new stream, not the engine's own", seed, i)
			}
			if i == len(first) {
				for _, old := range first {
					if r == old {
						t.Fatalf("seed %d: a call past the engine's streams handed one out twice", seed)
					}
				}
			}
			if d := sameDraws(r, rand.New(rand.NewSource(seed+int64(i))), 10_000); d >= 0 {
				t.Fatalf("seed %d: stream %d differs from a fresh source at draw %d", seed, i, d)
			}
		}
		// A sweep re-seeds with one seed run after run, drawing between, and
		// sometimes with another in between.
		for _, s := range []int64{seed, seed, seed + 1, seed, seed} {
			e.Reset()
			r := e.Rand(s)
			if d := sameDraws(r, rand.New(rand.NewSource(s)), 1_000); d >= 0 {
				t.Fatalf("seed %d: re-seeded stream differs from a fresh source at draw %d", s, d)
			}
		}
	}
}

// Under CheckLifetimes, Close hands nothing back and poisons what it
// closes: a draw after Close panics instead of reading a stream another
// machine now owns.
func TestCheckedCloseRecyclesNothing(t *testing.T) {
	e := sim.NewEngine()
	e.CheckLifetimes()
	if e.Recycles() {
		t.Fatal("an engine under the lifetime check recycles")
	}
	closed := e.Rand(1)
	e.Close()
	next := sim.NewEngine()
	for i := 0; i < 4; i++ {
		if next.Rand(1) == closed {
			t.Fatal("a stream closed under the lifetime check was handed out again")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a draw from a closed stream did not panic")
		}
	}()
	closed.Int63()
}

// Streams seeded alike share one memo of the seeded state, which goes when
// the last stream holding it does. A recycling engine's Close hands its
// sources back, so a closed machine holds none; the stream it gets after
// Reset draws exactly as a fresh source would.
func TestSeedMemoSharedAndSourcesFreed(t *testing.T) {
	const seed = 424_242
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	for _, e := range engines {
		drawMix(e.Rand(seed))
		e.Reset()
		drawMix(e.Rand(seed)) // the seed came back: the stream holds its memo
	}
	if a, b := engines[0].StreamMemo(0), engines[1].StreamMemo(0); a == nil || a != b {
		t.Fatalf("two streams seeded alike hold memos %p and %p, want one shared", a, b)
	}
	if n, _ := sim.MemoHolds(seed); n != 2 {
		t.Fatalf("the memo has %d holds, want 2", n)
	}
	for _, e := range engines {
		e.Close()
		if e.Recycles() && e.Sources() != 0 {
			t.Fatalf("a closed recycling engine holds %d sources", e.Sources())
		}
		if !e.Recycles() {
			continue // the lifetime check poisons the streams instead
		}
		e.Reset()
		if d := sameDraws(e.Rand(seed), rand.New(rand.NewSource(seed)), 1_000); d >= 0 {
			t.Fatalf("a stream re-seeded after Close differs from a fresh source at draw %d", d)
		}
		if e.Sources() != 1 {
			t.Fatalf("the re-seeded stream holds %d sources, want 1", e.Sources())
		}
	}
	engines = nil
	kept := func() bool { _, k := sim.MemoHolds(seed); return k }
	for i := 0; i < 100 && kept(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n, k := sim.MemoHolds(seed); k {
		t.Fatalf("the memo is still kept, with %d holds, after its streams were collected", n)
	}
}

// Engines on several goroutines share the memos and the free sources: each
// stream still draws exactly what a fresh source with its seed draws.
func TestStreamsAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := sim.NewEngine()
			for run := 0; run < 20; run++ {
				e.Reset()
				for i := 0; i < 3; i++ {
					seed := int64(i + run%2) // seeds that come back, on every goroutine
					if d := sameDraws(e.Rand(seed), rand.New(rand.NewSource(seed)), 200); d >= 0 {
						t.Errorf("goroutine %d run %d: stream %d differs from a fresh source at draw %d", g, run, i, d)
						return
					}
				}
				if e.Recycles() {
					e.Close()
				}
			}
		}(g)
	}
	wg.Wait()
}
