package faults

import "testing"

// FuzzParsePlan holds the fault-plan grammar to two properties on any input:
// ParsePlan never panics, and every plan it accepts survives its own spec —
// ParsePlan(p.Spec()) gives back p — so a failure artifact's plan replays as
// itself. The corpus seeds every preset's spec.
//
//	go test ./internal/faults -run '^$' -fuzz FuzzParsePlan -fuzztime 10s
func FuzzParsePlan(f *testing.F) {
	for _, p := range Presets {
		f.Add(p.Plan.Spec())
	}
	f.Add("fseed:-3,maxdelay:9,drop:1,delay:0x1p-2")
	f.Add("drop:NaN") // refused: NaN is no probability, and Spec cannot render it
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParsePlan(text)
		if err != nil {
			return
		}
		spec := p.Spec()
		again, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q) accepted it, but not its spec %q: %v", text, spec, err)
		}
		if again != p {
			t.Fatalf("%q parsed to %+v, its spec %q to %+v", text, p, spec, again)
		}
	})
}
