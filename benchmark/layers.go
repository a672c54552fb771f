package main

import (
	"time"

	"crossingguard/internal/accel"
	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/core"
	"crossingguard/internal/fuzz"
	"crossingguard/internal/hostproto/hammer"
	"crossingguard/internal/hostproto/mesi"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/seq"
)

// layer is a package of the simulator that owns fabric endpoints, plus two
// pseudo-layers: harness (driver set-up before the first event, drain and
// audit after the last) and unknown (a controller type this file does not
// know; TestLayerSwitchCoversEveryController keeps it empty).
type layer int

const (
	layerHarness layer = iota
	layerHammer
	layerMESI
	layerCore
	layerAccel
	layerSeq
	layerFuzz
	layerUnknown
	numLayers
)

var layerNames = [numLayers]string{"harness", "hostproto.hammer", "hostproto.mesi", "core", "accel", "seq", "fuzz", "unknown"}

func (l layer) String() string { return layerNames[l] }

// layerOf maps a registered controller to its layer. The guard's host
// shims (hammerside, mesiside) live inside *core.Guard and count as core;
// the sequencer's completions run the tester's and the kernels' callbacks,
// so seq carries the drivers.
func layerOf(c coherence.Controller) layer {
	switch c.(type) {
	case *hammer.Directory, *hammer.Cache:
		return layerHammer
	case *mesi.L2, *mesi.L1:
		return layerMESI
	case *core.Guard:
		return layerCore
	case *accel.L1Cache, *accel.InnerL1, *accel.SharedL2, *accel.WeakL1, *accel.WeakL2, *accel.Adversary:
		return layerAccel
	case *seq.Sequencer:
		return layerSeq
	case *fuzz.Attacker:
		return layerFuzz
	}
	return layerUnknown
}

// layerAcc accumulates one layer's share of a traced batch.
type layerAcc struct {
	Recv      uint64 // deliveries to the layer's controllers
	Intervals uint64 // inter-event intervals attributed to the layer
	NS        int64  // host time of those intervals, emit cost included
}

// span is one delivery: the handler a fabric recv event started.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // span during which the message was sent; 0 = timer-driven
	Layer     string `json:"layer"`
	Component string `json:"component"`
	Msg       string `json:"msg"`
	Tick      uint64 `json:"tick"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Crossing  uint64 `json:"crossing,omitempty"` // Msg.Span, when Spec.Spans is on
}

// maxSpansPerShard caps the full spans kept for one shard; the trace file
// says when a shard hit it.
const maxSpansPerShard = 2000

// spanRecorder keeps full spans for one shard. Every channel Build wires
// is ordered and the traced workloads inject no faults, so the n-th recv
// on a channel is the n-th send: a FIFO per channel recovers the parent.
type spanRecorder struct {
	spans     []span
	open      int // index+1 of the span whose handler is running, 0 = none
	openNode  coherence.NodeID
	parents   map[[2]coherence.NodeID][]int
	truncated bool
}

// traceSink is the benchmark's obs.Sink. Every inter-layer call in the
// simulator is a Controller.Recv scheduled by the fabric, which emits
// "send" before scheduling and "recv" immediately before dst.Recv, so the
// event stream carves a run's host time into intervals:
//   - the interval ending at a send from node X belongs to X's layer (X is
//     executing, possibly from a timer rather than a delivery);
//   - any other interval belongs to the layer last made active.
//
// Handlers do not nest, so a layer's self time is the sum of its intervals.
type traceSink struct {
	fab    *network.Fabric
	nodes  map[coherence.NodeID]layer
	base   time.Time
	begin  int64 // ns since base at which the current shard's driver started
	last   int64
	cur    layer
	acc    [numLayers]layerAcc
	events uint64
	rec    *spanRecorder // nil unless this shard keeps full spans
}

func newTraceSink() *traceSink {
	return &traceSink{base: time.Now(), nodes: map[coherence.NodeID]layer{}}
}

// attach installs the sink on a freshly built machine.
func (s *traceSink) attach(sys *config.System) {
	s.fab = sys.Fab
	clear(s.nodes)
	s.cur = layerHarness
	sys.Fab.Bus = obs.NewBus(s)
	s.begin = int64(time.Since(s.base))
	s.last = s.begin
}

// finish closes the shard: whatever part of the driver's run time no
// interval covered (drain and audit after the last event) is harness time.
func (s *traceSink) finish(run time.Duration) {
	if tail := int64(run) - (s.last - s.begin); tail > 0 {
		s.acc[layerHarness].NS += tail
		s.acc[layerHarness].Intervals++
	}
	s.fab = nil
}

func (s *traceSink) layerOfNode(id coherence.NodeID) layer {
	l, ok := s.nodes[id]
	if !ok {
		l = layerUnknown
		if c := s.fab.Node(id); c != nil {
			l = layerOf(c)
		}
		s.nodes[id] = l
	}
	return l
}

// Emit implements obs.Sink.
func (s *traceSink) Emit(e obs.Event) error {
	now := int64(time.Since(s.base))
	d := now - s.last
	s.last = now
	s.events++
	owner := s.cur
	switch e.Kind {
	case obs.KindSend:
		owner = s.layerOfNode(e.From)
		s.cur = owner
	case obs.KindRecv:
		s.cur = s.layerOfNode(e.To)
		s.acc[s.cur].Recv++
	}
	s.acc[owner].NS += d
	s.acc[owner].Intervals++
	if s.rec != nil {
		s.rec.event(s, e, now)
	}
	return nil
}

func (r *spanRecorder) close(now int64) {
	if r.open != 0 {
		r.spans[r.open-1].EndNS = now
		r.open = 0
	}
}

func (r *spanRecorder) event(s *traceSink, e obs.Event, now int64) {
	switch e.Kind {
	case obs.KindSend:
		if r.open != 0 && e.From != r.openNode {
			r.close(now) // another node's timer fired: the handler had returned
		}
		ch := [2]coherence.NodeID{e.From, e.To}
		r.parents[ch] = append(r.parents[ch], r.open)
	case obs.KindRecv:
		r.close(now)
		ch := [2]coherence.NodeID{e.From, e.To}
		parent := 0
		if q := r.parents[ch]; len(q) > 0 {
			parent, r.parents[ch] = q[0], q[1:]
		}
		if len(r.spans) >= maxSpansPerShard {
			r.truncated = true
			return
		}
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent,
			Layer: s.cur.String(), Component: e.Component, Msg: e.Msg.String(),
			Tick: uint64(e.Tick), StartNS: now - s.begin, Crossing: e.Span})
		r.open, r.openNode = len(r.spans), e.To
	}
}

// finishSpans ends the shard's last open span and rebases end times.
func (s *traceSink) finishSpans() *spanRecorder {
	r := s.rec
	r.close(s.last)
	for i := range r.spans {
		r.spans[i].EndNS -= s.begin
	}
	s.rec = nil
	return r
}

// corrected is a layer's host time with the calibrated per-event emit
// cost taken out: each interval contains one event's construction and one
// pass through the sink.
func (a layerAcc) corrected(emitNS float64) float64 {
	ns := float64(a.NS) - float64(a.Intervals)*emitNS
	if ns < 0 {
		return 0
	}
	return ns
}
