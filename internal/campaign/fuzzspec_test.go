package campaign

import "testing"

// FuzzParseSpec holds the repro grammar to two properties on any input:
// ParseSpec never panics, and every spec it accepts is canonical after one
// format — FormatSpec(ParseSpec(FormatSpec(s))) == FormatSpec(s) — so a
// printed repro line replays as itself. The corpus seeds the first spec of
// every sweep plus each retired recovery key, which ParseSpec must refuse.
//
//	go test ./internal/campaign -run '^$' -fuzz FuzzParseSpec -fuzztime 10s
func FuzzParseSpec(f *testing.F) {
	for _, sweep := range [][]ShardSpec{
		StressSweep(1, 2, 2, 100), FuzzSweep(1, 2, 3000), ChaosSweep(1, 2, 3000),
		RecoverySweep(1, 2, 3000), MultiAccelSweep(1, 2, 100, 3000),
	} {
		f.Add(FormatSpec(sweep[0]))
	}
	recovery := FormatSpec(RecoverySweep(1, 2, 3000)[0])
	for _, retired := range []string{"maxrec=4", "backoff=3", "backoffcap=60000"} {
		f.Add(recovery + " " + retired)
	}
	// A weak stress shard runs one core per device; more is refused.
	f.Add("kind=stress host=hammer org=xg-weak seed=1 cpus=1 cores=1 stores=2")
	f.Add("kind=stress host=mesi org=xg-weak seed=1 cores=2")
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpec(text)
		if err != nil {
			return
		}
		once := FormatSpec(spec)
		again, err := ParseSpec(once)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted it, but not its format %q: %v", text, once, err)
		}
		if twice := FormatSpec(again); twice != once {
			t.Fatalf("format of %q is not canonical: %q, then %q", text, once, twice)
		}
	})
}
