package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/sim"
)

func ev(i int) Event {
	return Event{
		Tick: sim.Time(10 * i), Component: "net", Kind: KindRecv,
		Addr: 0x10000, From: 200, To: 40,
		Msg: coherence.AGetS, Payload: fmt.Sprintf("e%d", i),
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	if r.Len() != 0 || len(r.Events()) != 0 {
		t.Fatalf("fresh ring not empty")
	}
	for i := 0; i < 3; i++ {
		r.Emit(ev(i))
	}
	if r.Len() != 3 || r.Total != 3 {
		t.Fatalf("len=%d total=%d, want 3/3", r.Len(), r.Total)
	}
	got := r.Events()
	if got[0].Payload != "e0" || got[2].Payload != "e2" {
		t.Fatalf("pre-wrap order wrong: %v", got)
	}
	// Push past capacity: the oldest events must fall out, order kept.
	for i := 3; i < 10; i++ {
		r.Emit(ev(i))
	}
	if r.Len() != 4 || r.Total != 10 {
		t.Fatalf("len=%d total=%d, want 4/10", r.Len(), r.Total)
	}
	got = r.Events()
	for i, e := range got {
		if want := fmt.Sprintf("e%d", i+6); e.Payload != want {
			t.Fatalf("post-wrap event %d = %q, want %q", i, e.Payload, want)
		}
	}
	if lines := strings.Count(r.Dump(), "\n"); lines != 4 {
		t.Fatalf("dump has %d lines, want 4", lines)
	}
}

func TestBusSinkErrorPropagation(t *testing.T) {
	boom := errors.New("disk full")
	calls := 0
	b := NewBus(FuncSink(func(e Event) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	}))
	for i := 0; i < 6; i++ {
		b.Emit(ev(i))
	}
	if b.Err() != boom {
		t.Fatalf("bus error = %v, want %v", b.Err(), boom)
	}
	// The bus latches the first error and stops calling the sink.
	if calls != 3 {
		t.Fatalf("sink called %d times, want 3 (quiet after failure)", calls)
	}
	if b.Emitted != 2 {
		t.Fatalf("emitted = %d, want 2 accepted before the failure", b.Emitted)
	}
}

func TestJSONLFormat(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	e := Event{Tick: 42, Component: "xg[0]", Kind: KindViolation,
		Addr: 0x10040, Payload: "XG.G1b"}
	if err := j.Emit(e); err != nil {
		t.Fatal(err)
	}
	if err := j.Emit(ev(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	want := `{"tick":42,"comp":"xg[0]","kind":"violation","addr":"0x10040","payload":"XG.G1b"}`
	if lines[0] != want {
		t.Fatalf("line = %s\nwant  %s", lines[0], want)
	}
	// Every line must be valid JSON with the expected fields.
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &m); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if m["msg"] != "A:GetS" || m["from"] != float64(200) || m["kind"] != "recv" {
		t.Fatalf("line 2 fields wrong: %v", m)
	}
}

func TestJSONLShardTag(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Shard = 7
	if err := j.Emit(Event{Tick: 1, Kind: KindSend}); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"shard":7,"tick":1,"kind":"send"}` + "\n"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

func TestEventString(t *testing.T) {
	s := ev(0).String()
	for _, want := range []string{"recv", "A:GetS", "0x10000", "200->40", "@net"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
}
