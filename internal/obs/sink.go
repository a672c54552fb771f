package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Ring is a bounded in-memory sink keeping the last capacity events —
// cheap enough to leave on during stress campaigns and dumped only when
// a shard fails (the last-N-events trace that led to the violation).
type Ring struct {
	cap  int
	evs  []Event
	next int
	full bool
	// Total counts all events ever emitted, including evicted ones.
	Total uint64
}

// NewRing returns a ring holding the last capacity events (1024 when
// capacity is not positive).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Ring{cap: capacity, evs: make([]Event, capacity)}
}

// Emit implements Sink; it never fails.
func (r *Ring) Emit(e Event) error {
	r.evs[r.next] = e
	r.next++
	r.Total++
	if r.next == r.cap {
		r.next = 0
		r.full = true
	}
	return nil
}

// Len reports how many events are currently buffered.
func (r *Ring) Len() int {
	if r.full {
		return r.cap
	}
	return r.next
}

// Events returns the buffered events oldest-first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.Len())
	if r.full {
		out = append(out, r.evs[r.next:]...)
	}
	return append(out, r.evs[:r.next]...)
}

// Dump renders the buffered events oldest-first, one line each.
func (r *Ring) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Slice is an unbounded in-memory sink, for tests that assert on the
// exact event stream.
type Slice struct {
	// Events holds everything emitted, in order.
	Events []Event
}

// Emit implements Sink; it never fails.
func (s *Slice) Emit(e Event) error {
	s.Events = append(s.Events, e)
	return nil
}

// JSONL writes each event as one JSON object per line. Output is
// buffered; call Flush (or Close on the Bus owner's way out) before the
// underlying writer is inspected.
type JSONL struct {
	w   *bufio.Writer
	buf []byte
	// Shard, when >= 0, is prepended to every line as a "shard" field —
	// the campaign exporter tags each shard's events so a merged trace
	// is self-describing.
	Shard int
}

// NewJSONL returns a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w), Shard: -1}
}

// Emit implements Sink; it fails when the underlying writer fails.
func (j *JSONL) Emit(e Event) error {
	j.buf = j.buf[:0]
	if j.Shard >= 0 {
		j.buf = append(j.buf, `{"shard":`...)
		j.buf = strconv.AppendInt(j.buf, int64(j.Shard), 10)
		j.buf = append(j.buf, ',')
		body := e.AppendJSON(nil)
		j.buf = append(j.buf, body[1:]...) // splice past the '{'
	} else {
		j.buf = e.AppendJSON(j.buf)
	}
	j.buf = append(j.buf, '\n')
	_, err := j.w.Write(j.buf)
	return err
}

// Flush drains the write buffer.
func (j *JSONL) Flush() error { return j.w.Flush() }

// FuncSink adapts a function to the Sink interface (error-injection
// tests).
type FuncSink func(e Event) error

// Emit implements Sink.
func (f FuncSink) Emit(e Event) error { return f(e) }
