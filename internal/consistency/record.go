// Package consistency records per-core observation streams from the
// sequencers and checks them offline against the coherence invariants
// the paper's inline assertions cannot see.
//
// The stress tester and the end-state audit both examine the state a run
// happens to land in: a stale read that is later overwritten, or a lost
// store masked by a subsequent write, leaves no end-state evidence. The
// offline checker works instead on the full observation history — one
// compact record per completed memory operation — and verifies the
// axiomatic invariants (SWMR, data-value, write-serialization) over the
// happens-before order induced by completion ticks and per-core program
// order.
//
// # Recording discipline
//
// Recording follows the obs package's nil-safety contract: a nil
// *Recorder or *Stream is a valid, permanently-disabled instrument.
// Sequencer hot paths guard emission with Stream.Active(), which is a
// single nil check, so a machine built without a recorder takes no
// branches into this package and allocates nothing — the PR 4 hot-path
// budgets (0 allocs/op on Engine.Schedule and Fabric.Send) are
// unaffected. With recording enabled the only cost is one slice append
// per completed operation.
package consistency

import (
	"cmp"
	"slices"
	"sort"

	"crossingguard/internal/mem"
	"crossingguard/internal/sim"
)

// Op classifies one observation record.
type Op uint8

const (
	// OpLoad is a completed load; Val is the value the core observed.
	OpLoad Op = iota
	// OpStore is a completed store; Val is the value the core wrote.
	OpStore
	// OpVerify is the tester's expectation for a verifying load: Val is
	// the value the tester believes the location must hold over the
	// load's [Issued, Done] window. It is checked like a load, so a
	// disagreement between the harness's bookkeeping and the recorded
	// history is itself a finding.
	OpVerify
)

var opNames = [...]string{OpLoad: "load", OpStore: "store", OpVerify: "verify"}

// String returns the log-format name ("load", "store", "verify").
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "?"
}

// ParseOp is String's inverse.
func ParseOp(s string) (Op, bool) {
	for i, n := range opNames {
		if n == s {
			return Op(i), true
		}
	}
	return 0, false
}

// Rec is one observation: a completed memory operation at byte
// granularity. Issued and Done bound the operation's lifetime in
// simulated ticks; the happens-before order the checker uses is
// "A.Done < B.Issued". Val is the value fingerprint — at byte
// granularity the fingerprint is the byte itself.
type Rec struct {
	Issued sim.Time
	Done   sim.Time
	Addr   mem.Addr
	Core   int32
	// Accel attributes the record to a device: 0 for host CPU cores,
	// d+1 for accelerator device d's cores. The checker's invariants are
	// device-blind (coherence is global), but violation reports carry the
	// tag so a cross-accelerator SWMR break names both devices involved.
	Accel int32
	// Epoch is the guard epoch the operation completed under (0 until the
	// device's first reset). A device reset wipes the accelerator
	// hierarchy, so the checker treats an epoch bump as a happens-before
	// fence for that device: every pre-reset operation precedes every
	// post-reset one, and a post-reset read returning pre-reset stale data
	// is a conviction even when the ticks alone would permit it.
	Epoch uint32
	Op    Op
	Val   byte
}

// Stream is one core's observation stream, append-only in completion
// order. A nil Stream is a permanently-disabled instrument: Active
// reports false and Record is a no-op.
type Stream struct {
	core  int32
	accel int32
	epoch uint32
	name  string
	recs  []Rec
}

// Active reports whether records will be kept. It is the hot-path fast
// gate: callers must check it before building a record, so a disabled
// stream costs one nil compare and nothing else.
func (s *Stream) Active() bool { return s != nil }

// Record appends one observation. No-op on a nil stream.
func (s *Stream) Record(op Op, addr mem.Addr, val byte, issued, done sim.Time) {
	if s == nil {
		return
	}
	s.recs = append(s.recs, Rec{
		Issued: issued, Done: done, Addr: addr,
		Core: s.core, Accel: s.accel, Epoch: s.epoch, Op: op, Val: val,
	})
}

// SetEpoch changes the guard epoch stamped on subsequent records (the
// device-reset step of quarantine recovery calls this from the guard's
// reset hook). No-op on a nil stream.
func (s *Stream) SetEpoch(epoch uint32) {
	if s == nil {
		return
	}
	s.epoch = epoch
}

// Core returns the stream's core index.
func (s *Stream) Core() int {
	if s == nil {
		return -1
	}
	return int(s.core)
}

// Accel returns the stream's device tag (0 = host CPU, d+1 = device d).
func (s *Stream) Accel() int {
	if s == nil {
		return 0
	}
	return int(s.accel)
}

// Name returns the core name the stream was registered under.
func (s *Stream) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Len returns the number of records held.
func (s *Stream) Len() int {
	if s == nil {
		return 0
	}
	return len(s.recs)
}

// Recs returns the stream's records in emission (program) order. The
// slice is the stream's backing storage; callers must not mutate it.
func (s *Stream) Recs() []Rec {
	if s == nil {
		return nil
	}
	return s.recs
}

// Recorder owns the per-core streams of one simulated machine.
// config.Build attaches one stream per sequencer when Spec.Consistency
// is set. A nil Recorder is a valid disabled instrument.
type Recorder struct {
	streams []*Stream
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Active reports whether the recorder collects anything.
func (r *Recorder) Active() bool { return r != nil }

// Adopt hands old's streams, emptied, to r, which has none yet: a machine
// reset for another run records into the storage its last run grew. old
// keeps no stream, and its records may not be read again. Adopting from
// nil or from r itself does nothing.
func (r *Recorder) Adopt(old *Recorder) {
	if old == nil || old == r || len(r.streams) != 0 {
		return
	}
	for _, s := range old.streams {
		s.recs, s.epoch = s.recs[:0], 0
	}
	r.streams, old.streams = old.streams, nil
}

// Stream returns the stream for core (creating it on first sight), or
// nil on a nil recorder — so wiring code can assign the result into a
// sequencer unconditionally. The stream records with device tag 0; use
// DeviceStream to attribute a core to an accelerator device.
func (r *Recorder) Stream(core int, name string) *Stream {
	return r.DeviceStream(core, name, 0)
}

// DeviceStream returns the stream for core, tagging every record it
// takes with the given device id (0 = host CPU, d+1 = accelerator
// device d). The tag lives on the stream, so the sequencer's per-record
// hot path is unchanged. Nil-safe like Stream.
func (r *Recorder) DeviceStream(core int, name string, accel int) *Stream {
	if r == nil {
		return nil
	}
	for _, s := range r.streams {
		if int(s.core) == core {
			return s
		}
	}
	s := &Stream{core: int32(core), accel: int32(accel), name: name}
	r.streams = append(r.streams, s)
	return s
}

// Streams returns the registered streams in core order.
func (r *Recorder) Streams() []*Stream {
	if r == nil {
		return nil
	}
	out := append([]*Stream{}, r.streams...)
	sort.Slice(out, func(i, j int) bool { return out[i].core < out[j].core })
	return out
}

// Len returns the total number of records across streams.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, s := range r.streams {
		n += len(s.recs)
	}
	return n
}

// Merged returns every record in the canonical total order the checker
// and the log format use: by completion tick, then issue tick, then
// core, with per-core emission order breaking the remaining ties. The
// order is a pure function of the records, so it is identical no matter
// how many workers ran the shard or in which order streams were
// created.
func (r *Recorder) Merged() []Rec {
	if r == nil {
		return nil
	}
	out := make([]Rec, 0, r.Len())
	for _, s := range r.Streams() {
		out = append(out, s.recs...)
	}
	SortRecs(out)
	return out
}

// SortRecs sorts records into the canonical merged order. The sort is
// stable, so records already in per-core emission order keep that order
// on (Done, Issued, Core) ties.
func SortRecs(recs []Rec) { slices.SortStableFunc(recs, compareMerged) }

// compareMerged orders two records by the canonical merged order's keys:
// completion tick, then issue tick, then core.
func compareMerged(a, b Rec) int {
	if c := cmp.Compare(a.Done, b.Done); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Issued, b.Issued); c != 0 {
		return c
	}
	return cmp.Compare(a.Core, b.Core)
}
