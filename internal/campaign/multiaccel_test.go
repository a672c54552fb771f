package campaign

// Multi-accelerator campaign tests: N devices behind N guards on one
// host fabric. The load-bearing property is that worker-count
// determinism survives the extra devices.

import (
	"reflect"
	"strings"
	"testing"

	"crossingguard/internal/config"
	"crossingguard/internal/consistency"
)

// multiSweep is a quick shard set exercising 2- and 3-device machines
// across kinds, hosts, and guard organizations.
func multiSweep() []ShardSpec {
	return []ShardSpec{
		{Kind: KindStress, Host: config.HostHammer, Org: config.OrgXGFull1L, Seed: 1, CPUs: 2, Cores: 1, Accels: 2, Stores: 10},
		{Kind: KindStress, Host: config.HostMESI, Org: config.OrgXGTxn2L, Seed: 2, CPUs: 2, Cores: 2, Accels: 2, Stores: 10},
		{Kind: KindStress, Host: config.HostHammer, Org: config.OrgXGFull2L, Seed: 3, CPUs: 2, Cores: 1, Accels: 3, Stores: 10},
		{Kind: KindFuzz, Host: config.HostHammer, Org: config.OrgXGTxn1L, Seed: 1, CPUs: 2, Accels: 2, Messages: 300, Confined: true},
		{Kind: KindChaos, Host: config.HostMESI, Org: config.OrgXGFull1L, Seed: 1, CPUs: 2, Accels: 2, Model: "stalewriter", Messages: 400, Confined: true},
	}
}

// TestMultiAccelDeterministicAcrossWorkers extends the campaign's core
// guarantee to multi-device machines: the same multi-accelerator shard
// set produces identical per-shard results for any worker count.
func TestMultiAccelDeterministicAcrossWorkers(t *testing.T) {
	var baseline *Report
	for _, workers := range []int{1, 8} {
		rep := Run(multiSweep(), Options{Workers: workers})
		if baseline == nil {
			baseline = rep
			continue
		}
		if got, want := rep.CoverageTable(), baseline.CoverageTable(); got != want {
			t.Errorf("workers=%d: coverage table differs:\n got:\n%s\nwant:\n%s", workers, got, want)
		}
		if !reflect.DeepEqual(rep.ByCode, baseline.ByCode) {
			t.Errorf("workers=%d: violation counts differ: %v vs %v", workers, rep.ByCode, baseline.ByCode)
		}
		for i := range rep.Shards {
			got, want := &rep.Shards[i], &baseline.Shards[i]
			if got.Res != want.Res || got.Sent != want.Sent || got.Violations != want.Violations {
				t.Errorf("workers=%d shard %d: result %+v/%d/%d, want %+v/%d/%d",
					workers, i, got.Res, got.Sent, got.Violations, want.Res, want.Sent, want.Violations)
			}
		}
	}
}

// TestMultiAccelSpecRoundTrip: accels survives the repro string and
// single-device specs render without it. The retired shards= key still
// parses — sharding never changed timing, so a pre-removal failure
// artifact replays to the same result — but is never emitted.
func TestMultiAccelSpecRoundTrip(t *testing.T) {
	for _, s := range multiSweep() {
		text := FormatSpec(s)
		got, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if got.Accels != s.Accels || FormatSpec(got) != text {
			t.Fatalf("round trip %q: got accels=%d (%q)", text, got.Accels, FormatSpec(got))
		}
		if s.Accels > 1 && !strings.Contains(s.Name(), "/a") {
			t.Errorf("Name() %q does not carry the accel count", s.Name())
		}
	}
	single := FormatSpec(ShardSpec{Kind: KindStress, Host: config.HostHammer,
		Org: config.OrgXGFull1L, Seed: 1, CPUs: 2, Cores: 2, Stores: 10})
	if strings.Contains(single, "accels=") {
		t.Errorf("single-device spec %q carries multi-device fields", single)
	}

	plain := "kind=stress host=mesi org=xg-txn/2L seed=2 cpus=2 cores=2 stores=10 accels=2"
	want, err := ParseSpec(plain)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", plain, err)
	}
	got, err := ParseSpec(plain + " shards=4")
	if err != nil {
		t.Fatalf("ParseSpec with the retired shards= key: %v", err)
	}
	if text := FormatSpec(got); text != FormatSpec(want) || strings.Contains(text, "shards=") {
		t.Errorf("shards=4 spec re-formats as %q, want %q", text, FormatSpec(want))
	}
	a, b := RunShard(got, false), RunShard(want, false)
	if a.Err != nil || a.Res != b.Res || a.Sent != b.Sent || a.Violations != b.Violations {
		t.Errorf("shards=4 spec ran to %+v/%d/%d (err %v), want %+v/%d/%d",
			a.Res, a.Sent, a.Violations, a.Err, b.Res, b.Sent, b.Violations)
	}
	for _, bad := range []string{"shards=0", "shards=x"} {
		if _, err := ParseSpec(plain + " " + bad); err == nil {
			t.Errorf("ParseSpec accepted %q", bad)
		}
	}
}

// TestCrossAccelObservationsTagged: a recorded two-device shard tags
// every accelerator-core observation with its device (1 = device 0,
// 2 = device 1) while host cores stay tag 0, and both devices observe
// the shared locations the tester stresses.
func TestCrossAccelObservationsTagged(t *testing.T) {
	spec := ShardSpec{Kind: KindStress, Host: config.HostHammer, Org: config.OrgXGFull1L,
		Seed: 1, CPUs: 2, Cores: 1, Accels: 2, Stores: 10, Consistency: true}
	res := RunShard(spec, false)
	if res.Err != nil {
		t.Fatalf("two-device stress shard failed: %v", res.Err)
	}
	byTag := map[int32]int{}
	for _, r := range res.Recs {
		byTag[r.Accel]++
	}
	for _, tag := range []int32{0, 1, 2} {
		if byTag[tag] == 0 {
			t.Errorf("no observations recorded with accel tag %d (have %v)", tag, byTag)
		}
	}
}

// TestCrossAccelStaleWriteConvicted seeds a cross-accelerator stale
// write into a clean two-device history: device 1 observes a location
// after a store from device 0 completed, and the seeded bug makes that
// observation return the pre-store value. The offline checker must
// convict at exactly that address, and the violation report must name
// the accelerator that observed the stale value.
func TestCrossAccelStaleWriteConvicted(t *testing.T) {
	spec := ShardSpec{Kind: KindStress, Host: config.HostMESI, Org: config.OrgXGFull1L,
		Seed: 2, CPUs: 2, Cores: 1, Accels: 2, Stores: 15, Consistency: true}
	res := RunShard(spec, false)
	if res.Err != nil {
		t.Fatalf("two-device stress shard failed: %v", res.Err)
	}
	if v := consistency.Check(res.Recs, consistency.Options{Workers: 1}); !v.OK() {
		t.Fatalf("clean history convicted: %v", v.First())
	}

	// Seed the bug: a device-2 load whose observed value was stored by a
	// device-1 core strictly before it; rewrite the load to drop that
	// store's effect.
	recs := append([]consistency.Rec(nil), res.Recs...)
	bug := -1
	for i := len(recs) - 1; i >= 0 && bug < 0; i-- {
		r := recs[i]
		if r.Op != consistency.OpLoad || r.Accel != 2 || r.Val == 0 {
			continue
		}
		for _, s := range recs {
			if s.Op == consistency.OpStore && s.Accel == 1 && s.Addr == r.Addr &&
				s.Val == r.Val && s.Done < r.Issued {
				bug = i
				break
			}
		}
	}
	if bug < 0 {
		t.Skip("no cross-device load/store pair in this history (seed-dependent)")
	}
	recs[bug].Val = 0
	v := consistency.Check(recs, consistency.Options{Workers: 1})
	if v.OK() {
		t.Fatalf("seeded cross-accelerator stale write at %v not convicted", recs[bug].Addr)
	}
	first := v.First()
	if first.Addr != recs[bug].Addr {
		t.Fatalf("convicted at %v, bug seeded at %v:\n%s", first.Addr, recs[bug].Addr, v.Render())
	}
	if !strings.Contains(first.String(), "[a2 ") {
		t.Errorf("violation report does not name the observing accelerator: %v", first)
	}
}

// TestMultiAccelSweepShape bounds the dedicated accel-count sweep: it
// covers every accel count for every guard organization, and its
// single-device stress cells are plain stress cells (same name as the
// corresponding StressSweep cell).
func TestMultiAccelSweepShape(t *testing.T) {
	specs := MultiAccelSweep(2, 2, 50, 500)
	counts := map[int]int{}
	for _, s := range specs {
		a := s.Accels
		if a == 0 {
			a = 1
		}
		counts[a]++
		if s.Kind == KindChaos && s.Model == "" {
			t.Fatalf("chaos cell without a model: %+v", s)
		}
	}
	for _, want := range AccelCounts {
		if counts[want] == 0 {
			t.Errorf("sweep has no cells with %d accels (have %v)", want, counts)
		}
	}
	one := ShardSpec{Kind: KindStress, Host: config.HostHammer, Org: config.OrgXGFull1L,
		Seed: 1, CPUs: 2, Cores: 2, Accels: 1, Stores: 50}
	if one.Name() != "hammer/xg-full/1L" {
		t.Errorf("Accels=1 name %q differs from the single-accelerator form", one.Name())
	}
}
