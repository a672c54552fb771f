package consistency

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadLog holds the observation-log reader to two properties on any
// input: ReadLog never panics, and every log it accepts re-encodes through
// LogWriter and reads back to the same shards and records. The corpus seeds
// a v2 log, a v3 log and every input TestReadLogRejectsGarbage refuses.
//
//	go test ./internal/consistency -run '^$' -fuzz FuzzReadLog -fuzztime 10s
func FuzzReadLog(f *testing.F) {
	recs := []Rec{
		{Issued: 2, Done: 209, Addr: 0x10100, Op: OpStore, Val: 0xd1},
		{Issued: 5, Done: 80, Addr: 0x10140, Core: 1, Accel: 1, Op: OpLoad},
	}
	for _, epoch := range []uint32{0, 2} { // v2, then v3
		var buf bytes.Buffer
		recs[1].Epoch = epoch
		lw := NewLogWriter(&buf)
		if err := lw.Add(0, recs[:1]); err != nil {
			f.Fatal(err)
		}
		if err := lw.Add(3, recs[1:]); err != nil {
			f.Fatal(err)
		}
		if err := lw.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, in := range garbageLogs {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, text string) {
		shards, err := ReadLog(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		lw := NewLogWriter(&buf)
		for _, s := range shards {
			if hasEpoch(s.Recs) {
				lw.RequireV3()
			}
		}
		for _, s := range shards {
			if err := lw.Add(s.Shard, s.Recs); err != nil {
				t.Fatal(err)
			}
		}
		if err := lw.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadLog accepted %q but not its re-encoding %q: %v", text, buf.String(), err)
		}
		if !reflect.DeepEqual(again, shards) {
			t.Fatalf("%q read back as %+v from its re-encoding %q, first read %+v", text, again, buf.String(), shards)
		}
	})
}
