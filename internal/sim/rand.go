package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"

	"crossingguard/internal/raceflag"
)

// Rand returns a random stream seeded with seed: exactly the stream
// rand.New(rand.NewSource(seed)) would draw. The engine keeps every stream
// it hands out, in order; after Reset the same calls get the same streams
// back, re-seeded in place. The stream is the machine's until Close.
//
// A stream holds its source (5 KB of state) only while its machine runs:
// a recycling Close hands the sources to a process-wide free list, and a
// stream seeded after that takes one from it and overwrites its whole
// state, so which source a stream gets cannot change a draw.
func (e *Engine) Rand(seed int64) *rand.Rand {
	if e.drawn < len(e.streams) {
		st := e.streams[e.drawn]
		e.drawn++
		// Seed resets the source and the Read buffer: nothing of the
		// last run's draws is left.
		st.r.Seed(seed)
		return &st.r
	}
	st := &stream{}
	st.load(seed, false)
	st.r = *rand.New(st)
	e.streams = append(e.streams, st)
	e.drawn++
	return &st.r
}

// stream is a random stream and the source under it, which knows its last
// seed and whether it has been drawn from since. Seeding the library's
// source computes 607 words; a machine reset for another run re-seeds
// every stream. Re-seeding with the same seed costs nothing when nothing
// was drawn (a new machine's reset, right after construction), and once
// the same seed has come back twice — a sweep resets its machine for every
// point with the spec's one seed — the stream holds that seed's memo and
// copies it back. A stream re-seeded with a new seed every run (a
// campaign's shards) holds no memo.
type stream struct {
	r     rand.Rand     // what the owner draws from; its source is the stream
	src   rand.Source64 // the state draws advance; nil while the machine is closed
	seed  int64         // the last seed
	drawn bool          // drawn from since
	hold  *hold         // the memo of a seed that came back; nil until one did
}

func (s *stream) Int63() int64 {
	s.drawn = true
	return s.src.Int63()
}

func (s *stream) Uint64() uint64 {
	s.drawn = true
	return s.src.Uint64()
}

// Seed puts the source in the state rand.NewSource(seed) starts in.
func (s *stream) Seed(seed int64) {
	if s.src != nil && seed == s.seed && !s.drawn {
		return
	}
	s.load(seed, seed == s.seed)
}

// load seeds the stream, taking a source from the free list when it has
// none. again says the seed is the one the stream had last: the stream
// then holds the seed's memo.
func (s *stream) load(seed int64, again bool) {
	s.seed, s.drawn = seed, false
	if again && (s.hold == nil || s.hold.m.seed != seed) {
		if s.hold == nil {
			s.hold = &hold{}
			runtime.SetFinalizer(s.hold, (*hold).release)
		} else {
			s.hold.release()
		}
		s.hold.m = memoFor(seed)
	}
	if s.src == nil {
		s.src = takeSource()
	}
	switch {
	case s.src == nil:
		s.src = rand.NewSource(seed).(rand.Source64)
	case s.hold != nil && s.hold.m.seed == seed:
		copyState(s.src, s.hold.m.state)
	default:
		s.src.Seed(seed)
	}
}

// memo is the state rand.NewSource(seed) starts in, one per seed, shared
// by every stream that holds it and dropped when the last lets it go.
type memo struct {
	seed  int64
	state rand.Source64
	refs  int // holds on it; under memos' lock
}

// memos maps each seed some stream holds a memo of to that memo.
var memos struct {
	sync.Mutex
	bySeed map[int64]*memo
}

// memoFor returns seed's memo, made if no stream holds one, with one more
// hold on it.
func memoFor(seed int64) *memo {
	memos.Lock()
	defer memos.Unlock()
	m := memos.bySeed[seed]
	if m == nil {
		if memos.bySeed == nil {
			memos.bySeed = map[int64]*memo{}
		}
		m = &memo{seed: seed, state: rand.NewSource(seed).(rand.Source64)}
		memos.bySeed[seed] = m
	}
	m.refs++
	return m
}

// hold is a stream's hold on a memo. It is an object of its own so that
// its finalizer lets the memo go when the stream is collected: the stream
// points to itself through its rand.Rand, and a finalizer on an object in
// a cycle never runs.
type hold struct{ m *memo }

// release lets the hold's memo go, dropping the memo with its last hold.
func (h *hold) release() {
	memos.Lock()
	defer memos.Unlock()
	if h.m.refs--; h.m.refs == 0 {
		delete(memos.bySeed, h.m.seed)
	}
	h.m = nil
}

// sources holds the sources of closed machines' streams for the next
// stream that needs one: never more than streams ran at once, and the
// closed streams hold none.
var sources struct {
	sync.Mutex
	free []rand.Source64
}

// takeSource returns a free source in some earlier stream's state, or nil.
func takeSource() rand.Source64 {
	sources.Lock()
	defer sources.Unlock()
	n := len(sources.free)
	if n == 0 {
		return nil
	}
	src := sources.free[n-1]
	sources.free[n-1] = nil
	sources.free = sources.free[:n-1]
	return src
}

// copyState sets dst's state to src's; both are the library's source,
// whose type is unexported, so the copy goes through reflection.
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
// stream Rand returned, so a draw after Close panics; otherwise it hands
// the streams' sources to the free list, and the streams stay with the
// engine for Reset. Closing twice is harmless.
func (e *Engine) Close() {
	if !e.Recycles() {
		for _, st := range e.streams {
			st.r = rand.Rand{}
		}
		return
	}
	sources.Lock()
	defer sources.Unlock()
	for _, st := range e.streams {
		if st.src != nil {
			sources.free = append(sources.free, st.src)
			st.src = nil
		}
	}
}
