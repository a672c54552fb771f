package campaign

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossingguard/internal/config"
)

// update regenerates golden files: go test ./internal/campaign -update
var update = flag.Bool("update", false, "rewrite golden files")

// TestExportDeterministicAcrossWorkers extends the campaign's core
// guarantee to the observability exports: the -metrics JSON and -trace
// JSONL byte streams must be identical for any worker count.
func TestExportDeterministicAcrossWorkers(t *testing.T) {
	var wantMetrics, wantTrace []byte
	for _, workers := range []int{1, 3} {
		rep := Run(smallSweep(), Options{Workers: workers, Trace: true})
		var m, tr bytes.Buffer
		if err := rep.WriteMetrics(&m); err != nil {
			t.Fatalf("workers=%d: WriteMetrics: %v", workers, err)
		}
		if err := rep.WriteTrace(&tr); err != nil {
			t.Fatalf("workers=%d: WriteTrace: %v", workers, err)
		}
		if wantMetrics == nil {
			wantMetrics, wantTrace = m.Bytes(), tr.Bytes()
			continue
		}
		if !bytes.Equal(m.Bytes(), wantMetrics) {
			t.Errorf("workers=%d: metrics JSON differs from workers=1", workers)
		}
		if !bytes.Equal(tr.Bytes(), wantTrace) {
			t.Errorf("workers=%d: trace JSONL differs from workers=1", workers)
		}
	}
	if !bytes.Contains(wantMetrics, []byte("guard.check.pass")) {
		t.Error("metrics export missing guard.check.pass")
	}
	if len(bytes.Split(wantTrace, []byte("\n"))) < 10 {
		t.Error("trace export suspiciously short")
	}
}

// TestShardMetrics: every built-in shard carries its machine's metrics
// registry, and the merged report accounts for all of them.
func TestShardMetrics(t *testing.T) {
	rep := Run(smallSweep(), Options{Workers: 2})
	for i := range rep.Shards {
		s := &rep.Shards[i]
		if s.Obs == nil {
			t.Fatalf("shard %d: nil metrics registry", i)
		}
		if s.Obs.Counter("net.msgs").Value() == 0 {
			t.Errorf("shard %d: no network messages counted", i)
		}
	}
	snap := rep.Metrics.Snapshot()
	var perShard uint64
	for i := range rep.Shards {
		perShard += rep.Shards[i].Obs.Counter("guard.check.pass").Value()
	}
	if got := snap.Counters["guard.check.pass"]; got != perShard {
		t.Errorf("merged guard.check.pass = %d, want sum of shards %d", got, perShard)
	}
}

// goldenSummary compresses a trace stream into a small, fully
// deterministic fingerprint: the first 64 lines verbatim, then the
// total line/byte counts and a SHA-256 of the whole stream. Any byte
// of drift anywhere in the stream changes the summary.
func goldenSummary(raw []byte) string {
	lines := strings.SplitAfter(string(raw), "\n")
	n := 0
	var b strings.Builder
	for _, l := range lines {
		if l == "" {
			continue
		}
		if n < 64 {
			b.WriteString(l)
		}
		n++
	}
	fmt.Fprintf(&b, "... total %d lines, %d bytes, sha256 %x\n", n, len(raw), sha256.Sum256(raw))
	return b.String()
}

// TestTraceGolden pins the full JSONL byte stream of one fixed-seed
// stress shard against a golden fingerprint. A change here means the
// trace schema, event ordering, or simulation behavior moved — update
// deliberately with -update.
func TestTraceGolden(t *testing.T) {
	spec := ShardSpec{Kind: KindStress, Host: config.HostHammer, Org: config.OrgXGFull1L,
		Seed: 7, CPUs: 1, Cores: 1, Stores: 2}
	rep := Run([]ShardSpec{spec}, Options{Workers: 1, Trace: true})
	if rep.Failures() != 0 {
		t.Fatalf("golden shard failed: %+v", rep.Artifacts)
	}
	var buf bytes.Buffer
	if err := rep.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got := goldenSummary(buf.Bytes())

	path := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("trace stream drifted from golden (regenerate deliberately with -update):\n got: %s\nwant: %s",
			tail(got), tail(string(want)))
	}
}

// TestTraceGoldenSpans pins the span-enabled trace stream of the same
// fixed-seed shard: span-begin/span-phase/span-end emission order is
// part of the trace contract once Spans is on. The span-free golden
// above is unaffected — Spans defaults off, so existing traces stay
// byte-identical.
func TestTraceGoldenSpans(t *testing.T) {
	spec := ShardSpec{Kind: KindStress, Host: config.HostHammer, Org: config.OrgXGFull1L,
		Seed: 7, CPUs: 1, Cores: 1, Stores: 2, Spans: true}
	rep := Run([]ShardSpec{spec}, Options{Workers: 1, Trace: true})
	if rep.Failures() != 0 {
		t.Fatalf("golden shard failed: %+v", rep.Artifacts)
	}
	var buf bytes.Buffer
	if err := rep.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"kind":"span-begin"`)) {
		t.Fatal("span-enabled golden shard emitted no span events")
	}
	got := goldenSummary(buf.Bytes())

	path := filepath.Join("testdata", "trace_spans.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("span trace stream drifted from golden (regenerate deliberately with -update):\n got: %s\nwant: %s",
			tail(got), tail(string(want)))
	}
}

func tail(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}

// TestFailureArtifactEmbedsTrace: with tracing on, a failing shard's
// artifact must carry the rendered last-N-events trace tail, and the
// shard result must expose the raw events for -trace export.
func TestFailureArtifactEmbedsTrace(t *testing.T) {
	bad := ShardSpec{Kind: KindFuzz, Host: config.HostHammer, Org: config.OrgXGFull1L,
		Seed: 1, CPUs: 2, Messages: 500, CheckValues: true}
	rep := Run([]ShardSpec{bad}, Options{Workers: 1, Trace: true})
	if rep.Failures() != 1 {
		t.Fatalf("expected 1 failure, got %d", rep.Failures())
	}
	s := &rep.Shards[0]
	if len(s.Events) == 0 {
		t.Fatal("failing traced shard captured no events")
	}
	art := rep.Artifacts[0]
	if art.TraceDump == "" {
		t.Fatal("failure artifact has no trace dump")
	}
	// The dump is the rendered form of the captured ring: its last line
	// must describe the last captured event.
	last := s.Events[len(s.Events)-1].String()
	if !strings.Contains(art.TraceDump, last) {
		t.Errorf("trace dump does not end with the last event:\n last event: %s\n dump tail: %s",
			last, tail(art.TraceDump))
	}

	// Without tracing, no events and no dump — the hot path stays bare.
	rep = Run([]ShardSpec{bad}, Options{Workers: 1})
	if s := &rep.Shards[0]; len(s.Events) != 0 || rep.Artifacts[0].TraceDump != "" {
		t.Error("untraced run still captured events")
	}
}
