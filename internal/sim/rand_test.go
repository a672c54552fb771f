package sim_test

import (
	"bytes"
	"math/rand"
	"testing"

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
