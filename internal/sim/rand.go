package sim

import (
	"math/rand"
	"sync"

	"crossingguard/internal/raceflag"
)

// stream is one random stream and the link that strings a machine's
// streams together on its engine. A source weighs 5 KB and a short
// adversarial machine draws several — fabric jitter, tester, fault
// injector, one per adversary — so a closed engine hands its streams to
// the next engine that asks, on any goroutine.
type stream struct {
	rand.Rand
	next *stream
}

// streams holds the streams closed engines handed back.
var streams sync.Pool

// Rand returns a random stream seeded with seed: exactly the stream
// rand.New(rand.NewSource(seed)) would draw. It is a closed engine's stream
// re-seeded in place when there is one. The stream is the machine's until
// Close.
func (e *Engine) Rand(seed int64) *rand.Rand {
	s, ok := streams.Get().(*stream)
	if ok {
		// Seed resets the source and the Read buffer: nothing of the
		// last owner's draws is left.
		s.Seed(seed)
	} else {
		s = &stream{Rand: *rand.New(rand.NewSource(seed))}
	}
	s.next, e.streams = e.streams, s
	return &s.Rand
}

// CheckLifetimes turns the lifetime check on for this engine: Close hands
// nothing back and poisons the streams instead, so a draw after Close
// panics rather than reading another machine's stream. It is on in -race
// builds.
func (e *Engine) CheckLifetimes() { e.check = true }

// Recycles reports whether Close hands the engine's streams back: false
// under the lifetime check.
func (e *Engine) Recycles() bool { return !raceflag.Enabled && !e.check }

// Close hands every stream Rand returned to the next engine that asks. No
// stream may be drawn after Close. Closing twice is harmless.
func (e *Engine) Close() {
	recycle := e.Recycles()
	for s := e.streams; s != nil; {
		next := s.next
		s.next = nil
		if recycle {
			streams.Put(s)
		} else {
			s.Rand = rand.Rand{}
		}
		s = next
	}
	e.streams = nil
}
