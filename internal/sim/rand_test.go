package sim_test

import (
	"bytes"
	"math/rand"
	"testing"

	"crossingguard/internal/raceflag"
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

// A stream a closed engine handed back is, for the engine that takes it,
// exactly the stream a fresh source with its seed draws: nothing of the
// last owner's position or buffered bytes is left. Under the lifetime check
// (-race builds) Close hands nothing back.
func TestRecycledStreamIsFresh(t *testing.T) {
	for _, seed := range []int64{1, 7, 131, 1 << 40, -3} {
		old := sim.NewEngine()
		owned := map[*rand.Rand]bool{}
		// Several streams, so that at least one is found again whichever
		// processor the test goroutine runs on next.
		for i := 0; i < 4; i++ {
			r := old.Rand(seed*10 + int64(i))
			drawMix(r)
			owned[r] = true
		}
		old.Close()
		e := sim.NewEngine()
		reused := 0
		for i := 0; i < 4; i++ {
			r := e.Rand(seed)
			if owned[r] {
				reused++
			}
			if d := sameDraws(r, rand.New(rand.NewSource(seed)), 10_000); d >= 0 {
				t.Fatalf("seed %d: stream %d differs from a fresh source at draw %d", seed, i, d)
			}
		}
		e.Close()
		switch {
		case raceflag.Enabled && reused != 0:
			t.Fatalf("seed %d: Close handed back %d streams under -race", seed, reused)
		case !raceflag.Enabled && reused == 0:
			t.Fatalf("seed %d: no stream handed back by Close was reused", seed)
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
