package campaign

import (
	"strings"
	"testing"

	"crossingguard/internal/accel"
	"crossingguard/internal/config"
	"crossingguard/internal/consistency"
)

// TestRecoveryGrammarRoundTrip: every recovery sweep spec survives the
// format -> parse -> format cycle byte-identically, and the recovery
// keys parse back into the right fields.
func TestRecoveryGrammarRoundTrip(t *testing.T) {
	for _, s := range RecoverySweep(2, 2, 400) {
		text := FormatSpec(s)
		got, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if got.RecoverAfter != s.RecoverAfter {
			t.Fatalf("round trip %q: recover=%d, want %d", text, got.RecoverAfter, s.RecoverAfter)
		}
		if FormatSpec(got) != text {
			t.Errorf("re-format drifted: %q vs %q", FormatSpec(got), text)
		}
	}
	// The retired backoff keys changed timing, so a spec carrying one is
	// refused rather than replayed differently.
	text := FormatSpec(RecoverySweep(1, 2, 400)[0])
	for _, key := range []string{"maxrec=4", "backoff=3", "backoffcap=60000"} {
		if _, err := ParseSpec(text + " " + key); err == nil || !strings.Contains(err.Error(), "retired") {
			t.Errorf("ParseSpec(%q) = %v, want a retired-field error", text+" "+key, err)
		}
	}
}

// TestRecoveryKeysOmittedWhenUnset pins repro-string compatibility: a
// pre-recovery chaos spec renders without any recovery key, so every
// historical repro line is still byte-identical.
func TestRecoveryKeysOmittedWhenUnset(t *testing.T) {
	spec := ShardSpec{Kind: KindChaos, Host: config.HostMESI, Org: config.OrgXGTxn2L,
		Seed: 7, CPUs: 2, Messages: 300, Model: accel.AdvBabbler.String(), Confined: true}
	text := FormatSpec(spec)
	for _, key := range []string{"recover=", "maxrec=", "backoff"} {
		if strings.Contains(text, key) {
			t.Fatalf("FormatSpec(%v) = %q leaks recovery key %q into a pre-recovery spec",
				spec, text, key)
		}
	}
}

// TestRecoveryShardReintegrates is the campaign-level integration test:
// one flapper cell from the recovery sweep runs end to end, the device
// is readmitted at least once, the shard ends healthy (a recovered
// guard does not count as quarantined), and the consistency checker
// convicts nothing across the reset.
func TestRecoveryShardReintegrates(t *testing.T) {
	base := RecoverySweep(1, 2, 600)
	for _, idx := range []int{0, len(base) - 1} { // hammer/full-1L and mesi/txn-2L cells
		spec := base[idx]
		res := RunShard(spec, false)
		if res.Err != nil {
			// Recovery cells run with Consistency set, so a checker
			// conviction across the reset surfaces here too.
			t.Fatalf("%s: %v", FormatSpec(spec), res.Err)
		}
		if res.Recoveries < 1 {
			t.Fatalf("%s: %d reintegrations, want >=1", FormatSpec(spec), res.Recoveries)
		}
		if res.Quarantined {
			t.Fatalf("%s: shard still quarantined at end of run; recovery should have readmitted it",
				FormatSpec(spec))
		}
		if len(res.Recs) == 0 {
			t.Fatalf("%s: no observations recorded; the observation stream is the evidence", FormatSpec(spec))
		}
		if v := consistency.Check(res.Recs, consistency.Options{Workers: 1}); !v.OK() {
			t.Fatalf("%s: checker convicted the recovered run: %v", FormatSpec(spec), v.First())
		}
	}
}
