package obs

import (
	"fmt"
	"strconv"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/sim"
)

// Kind classifies trace events.
type Kind uint8

// The event kinds every component can emit onto the bus.
const (
	// KindSend is a message entering the interconnect.
	KindSend Kind = iota
	// KindRecv is a message delivered to its destination controller.
	KindRecv
	// KindDrop is a message discarded (unregistered destination).
	KindDrop
	// KindViolation is a detected protocol/guarantee violation.
	KindViolation
	// KindGrant is the guard completing an accelerator transaction.
	KindGrant
	// KindTimeout is the guard's Guarantee 2c watchdog firing.
	KindTimeout
	// KindFault is an injected fabric fault (drop, duplicate, delay,
	// corrupt, reorder) from the internal/faults interceptor; the payload
	// names the fault.
	KindFault
	// KindRetry is the guard re-sending an Invalidate after a recall
	// deadline expired with retries remaining.
	KindRetry
	// KindQuarantine is the guard fencing its accelerator after repeated
	// guarantee violations (graceful-degradation mode).
	KindQuarantine
	// KindRecovery is a step of the quarantine-recovery protocol: backoff
	// scheduling, drain completion, device reset/reintegration under a
	// bumped epoch, or conversion to permanent quarantine. The payload
	// names the step.
	KindRecovery
	// KindSpanBegin opens a causal span (core.Config.Spans): one guard
	// transaction — an accepted accelerator crossing, a host-initiated
	// recall, or a recovery cycle — identified by the Span field. The
	// payload names the operation ("crossing A:GetM", "recall M",
	// "recovery 1/3").
	KindSpanBegin
	// KindSpanPhase marks the completion of one phase inside an open
	// span; the payload names the phase that just ended ("check",
	// "retry 1/2", "coalesced", "backoff", "drain").
	KindSpanPhase
	// KindSpanEnd closes a span; the payload names the outcome ("grant M",
	// "wback", "response", "timeout", "reintegrated epoch 1").
	KindSpanEnd

	numKinds
)

var kindNames = [numKinds]string{"send", "recv", "drop", "violation", "grant", "timeout",
	"fault", "retry", "quarantine", "recovery", "span-begin", "span-phase", "span-end"}

// String returns the JSON wire name of the kind (e.g. "send").
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one structured trace record. All fields are plain values so
// an Event can outlive the simulation that produced it (ring buffers
// keep events, not pointers into live protocol state).
type Event struct {
	// Tick is the simulated time of the event.
	Tick sim.Time
	// Component names the reporting component ("net", a controller name).
	Component string
	// Kind classifies the event.
	Kind Kind
	// Addr is the affected cache line (0 when not applicable).
	Addr mem.Addr
	// From and To identify the endpoints for message events (0 — below
	// the simulator's node-id layout — when not applicable).
	From, To coherence.NodeID
	// Msg is the coherence message type for message events.
	Msg coherence.MsgType
	// Accel is the accelerator device index of the guard reporting the
	// event — the xg.accel.id trace field. 0 (the first or only device)
	// is omitted from rendered output, so single-accelerator traces are
	// byte-identical to the pre-multi-accelerator format.
	Accel int
	// Span is the causal span id tying span-begin/span-phase/span-end
	// events (and the message events of the same transaction) together.
	// 0 — span tracing disabled or event outside any span — is omitted
	// from rendered output, so traces without spans are byte-identical
	// to the pre-span format.
	Span uint64
	// Payload carries free-form detail (violation code, message rendering).
	Payload string
}

// String renders the event as one human-readable trace line, the format
// cmd/xgtrace prints and failure artifacts embed.
func (e Event) String() string {
	s := fmt.Sprintf("[%8d] %-9s", uint64(e.Tick), e.Kind)
	if e.Msg != coherence.MsgInvalid {
		s += " " + e.Msg.String()
	}
	if e.Addr != 0 {
		s += " " + e.Addr.String()
	}
	if e.From != 0 || e.To != 0 {
		s += fmt.Sprintf(" %d->%d", e.From, e.To)
	}
	if e.Component != "" {
		s += " @" + e.Component
	}
	if e.Accel != 0 {
		s += fmt.Sprintf(" accel=%d", e.Accel)
	}
	if e.Span != 0 {
		s += fmt.Sprintf(" span=%x", e.Span)
	}
	if e.Payload != "" {
		s += " " + e.Payload
	}
	return s
}

// AppendJSON appends the event as a single JSON object with a fixed
// field order (tick, comp, kind, addr, msg, from, to, accel, span,
// payload; zero fields omitted), so traces are byte-identical run over
// run without going through encoding/json's reflection. The accel field
// — xg.accel.id, the reporting guard's device index — and the span
// field are omitted-when-zero, so device-0 events and span-free traces
// render exactly as they did before.
func (e Event) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"tick":`...)
	dst = strconv.AppendUint(dst, uint64(e.Tick), 10)
	if e.Component != "" {
		dst = append(dst, `,"comp":`...)
		dst = strconv.AppendQuote(dst, e.Component)
	}
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, '"')
	if e.Addr != 0 {
		dst = append(dst, `,"addr":"0x`...)
		dst = strconv.AppendUint(dst, uint64(e.Addr), 16)
		dst = append(dst, '"')
	}
	if e.Msg != coherence.MsgInvalid {
		dst = append(dst, `,"msg":`...)
		dst = strconv.AppendQuote(dst, e.Msg.String())
	}
	if e.From != 0 {
		dst = append(dst, `,"from":`...)
		dst = strconv.AppendInt(dst, int64(e.From), 10)
	}
	if e.To != 0 {
		dst = append(dst, `,"to":`...)
		dst = strconv.AppendInt(dst, int64(e.To), 10)
	}
	if e.Accel != 0 {
		dst = append(dst, `,"accel":`...)
		dst = strconv.AppendInt(dst, int64(e.Accel), 10)
	}
	if e.Span != 0 {
		dst = append(dst, `,"span":`...)
		dst = strconv.AppendUint(dst, e.Span, 10)
	}
	if e.Payload != "" {
		dst = append(dst, `,"payload":`...)
		dst = strconv.AppendQuote(dst, e.Payload)
	}
	dst = append(dst, '}')
	return dst
}

// MsgEvent builds a message-flow event from a coherence message. Type,
// address, and endpoints map onto the structured fields; the payload
// carries only the auxiliary detail (requestor, data/dirty flags, ack
// count) that has no field of its own.
func MsgEvent(tick sim.Time, kind Kind, component string, m *coherence.Msg) Event {
	return Event{
		Tick: tick, Component: component, Kind: kind,
		Addr: m.Addr, From: m.Src, To: m.Dst, Msg: m.Type,
		Span: m.Span, Payload: msgDetail(m),
	}
}

// msgDetail renders the message flags Event has no structured field for,
// mirroring the tail of coherence.Msg.String.
func msgDetail(m *coherence.Msg) string {
	var s string
	if m.Requestor != 0 && m.Requestor != coherence.NodeNone {
		s = "req=" + strconv.Itoa(int(m.Requestor))
	}
	if m.Data != nil {
		if s != "" {
			s += " "
		}
		s += "+data"
		if m.Dirty {
			s += "(dirty)"
		}
	}
	if m.Acks != 0 {
		if s != "" {
			s += " "
		}
		s += "acks=" + strconv.Itoa(int(m.Acks))
	}
	if m.Shared {
		if s != "" {
			s += " "
		}
		s += "shared"
	}
	if m.Epoch != 0 {
		if s != "" {
			s += " "
		}
		s += "epoch=" + strconv.Itoa(int(m.Epoch))
	}
	return s
}

// Sink consumes events. Sinks may fail (a full disk under a JSONL
// writer); the Bus latches the first error and stops forwarding.
type Sink interface {
	Emit(e Event) error
}

// Bus fans events from the simulator into one sink. A nil *Bus is a
// valid no-op, but hot paths must guard emission with Active so event
// construction itself is skipped when nobody is listening (a bus with no
// sink, or one whose sink already failed, costs the same as no bus):
//
//	if b := fab.Bus; b.Active() {
//	    b.Emit(obs.MsgEvent(...))
//	}
type Bus struct {
	sink Sink
	err  error
	// Emitted counts events accepted by the sink.
	Emitted uint64
}

// NewBus returns a bus feeding sink.
func NewBus(sink Sink) *Bus {
	return &Bus{sink: sink}
}

// Active reports whether an Emit would reach a sink. It is the hot-path
// fast gate: when it returns false, callers skip building the Event
// entirely (MsgEvent renders payload strings, which is far more expensive
// than this nil-safe triple check). Active is false for a nil bus, a bus
// with no sink, and a bus whose sink has latched an error.
func (b *Bus) Active() bool {
	return b != nil && b.err == nil && b.sink != nil
}

// Emit forwards e to the sink. After the first sink error the bus goes
// quiet (the error is latched, later events are discarded) — a broken
// sink must not take the simulation down with it.
func (b *Bus) Emit(e Event) {
	if b == nil || b.err != nil || b.sink == nil {
		return
	}
	if err := b.sink.Emit(e); err != nil {
		b.err = err
		return
	}
	b.Emitted++
}

// Err returns the latched sink error, if any.
func (b *Bus) Err() error {
	if b == nil {
		return nil
	}
	return b.err
}
