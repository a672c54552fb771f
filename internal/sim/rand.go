package sim

import (
	"math/rand"
	"reflect"

	"crossingguard/internal/raceflag"
)

// Rand returns a random stream seeded with seed: exactly the stream
// rand.New(rand.NewSource(seed)) would draw. The engine keeps every stream
// it hands out, in order; after Reset the same calls get the same streams
// back, re-seeded in place, so a machine that is reset draws no new
// source (each weighs 5 KB). The stream is the machine's until Close.
func (e *Engine) Rand(seed int64) *rand.Rand {
	if e.drawn < len(e.streams) {
		r := e.streams[e.drawn]
		e.drawn++
		// Seed resets the source and the Read buffer: nothing of the
		// last run's draws is left.
		r.Seed(seed)
		return r
	}
	r := rand.New(&reseedable{Source64: rand.NewSource(seed).(rand.Source64), seed: seed})
	e.streams = append(e.streams, r)
	e.drawn++
	return r
}

// reseedable is a source that knows its last seed and whether it has been
// drawn from since. Seeding the library's source computes 607 words; a
// machine reset for another run re-seeds every stream. Re-seeding with the
// same seed costs nothing when nothing was drawn (a new machine's reset,
// right after construction), and once the same seed has come back twice —
// a sweep resets its machine for every point with the spec's one seed —
// the source keeps a copy of that seed's state and copies it back. A
// stream re-seeded with a new seed every run (a campaign's shards) keeps
// no copy.
type reseedable struct {
	rand.Source64               // the state draws advance
	seed          int64         // the last seed
	drawn         bool          // drawn from since
	seeded        rand.Source64 // the state memo's seed produced; nil until needed
	memo          int64
}

func (s *reseedable) Int63() int64 {
	s.drawn = true
	return s.Source64.Int63()
}

func (s *reseedable) Uint64() uint64 {
	s.drawn = true
	return s.Source64.Uint64()
}

// Seed puts the source in the state rand.NewSource(seed) starts in.
func (s *reseedable) Seed(seed int64) {
	if seed == s.seed && !s.drawn {
		return
	}
	again := seed == s.seed
	s.seed, s.drawn = seed, false
	if s.seeded != nil && seed == s.memo {
		copyState(s.Source64, s.seeded)
		return
	}
	s.Source64.Seed(seed)
	if !again {
		return
	}
	if s.seeded == nil {
		s.seeded = clone(s.Source64)
	} else {
		copyState(s.seeded, s.Source64)
	}
	s.memo = seed
}

// clone returns a new source in src's state. The library's source type is
// unexported, so the copy goes through reflection.
func clone(src rand.Source64) rand.Source64 {
	dst := reflect.New(reflect.TypeOf(src).Elem()).Interface().(rand.Source64)
	copyState(dst, src)
	return dst
}

// copyState sets dst's state to src's; both are the library's source.
func copyState(dst, src rand.Source64) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}

// CheckLifetimes turns the lifetime check on for this engine: Close
// poisons the streams, so a draw after Close panics, and the machine is
// never reset for another run. It is on in -race builds.
func (e *Engine) CheckLifetimes() { e.check = true }

// Recycles reports whether the engine's machine may be reset and run
// again after Close: false under the lifetime check.
func (e *Engine) Recycles() bool { return !raceflag.Enabled && !e.check }

// Close ends the engine's run. Under the lifetime check it poisons every
// stream Rand returned, so a draw after Close panics; otherwise the
// streams stay with the engine for Reset. Closing twice is harmless.
func (e *Engine) Close() {
	if e.Recycles() {
		return
	}
	for _, r := range e.streams {
		*r = rand.Rand{}
	}
}
