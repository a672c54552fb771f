// Package faults is the deterministic fault-injection layer: a seeded
// fault Plan describing what to perturb (drop / duplicate / corrupt /
// delay / reorder probabilities on the accelerator-side channels) and an
// Injector implementing network.Interceptor that executes the plan.
//
// Determinism is the whole point. A plan is replayable from a one-line
// spec (same grammar class as campaign repro specs): the injector draws
// every decision from a PRNG seeded by the plan, never from wall-clock
// time, so a failure artifact that embeds the plan spec replays the exact
// fault schedule byte-for-byte. The threat model follows the paper's §4
// fuzzing methodology plus ECI-style link loss: the host must uphold
// Guarantees 0a-2c no matter what the fabric loses, reorders, or
// scrambles on the accelerator side.
package faults

import (
	"fmt"
	"strconv"
	"strings"

	"crossingguard/internal/sim"
)

// Plan describes one deterministic fault schedule. Probabilities are per
// message in [0,1]; a zero Plan injects nothing. Drop wins over the other
// faults; the remaining faults compose (a duplicated message can also be
// delayed and corrupted).
type Plan struct {
	// Seed seeds the injector's PRNG; two injectors with equal plans see
	// identical fault schedules for identical traffic.
	Seed int64
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// Corrupt is the probability a data-bearing message has one random
	// bit flipped in its block (control messages are never corrupted —
	// the paper's interface leaves header integrity to the link layer).
	Corrupt float64
	// Delay is the probability a delivery gets extra latency, uniform in
	// [1, MaxDelay] ticks.
	Delay float64
	// MaxDelay bounds injected delay; defaults to DefaultMaxDelay when a
	// delaying plan leaves it zero.
	MaxDelay sim.Time
	// Reorder is the probability a delivery bypasses FIFO ordering on an
	// ordered channel, letting it overtake earlier traffic.
	Reorder float64
}

// DefaultMaxDelay is used by plans that inject delay without setting a
// bound. Large enough to overlap recall deadlines in chaos configs.
const DefaultMaxDelay sim.Time = 500

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.Drop > 0 || p.Dup > 0 || p.Corrupt > 0 || p.Delay > 0 || p.Reorder > 0
}

// Spec renders the plan as one whitespace-free token, e.g.
// "fseed:7,drop:0.02,dup:0.01". Zero fields are omitted; ParsePlan
// round-trips the result exactly (floats use shortest-form formatting).
// An inactive plan renders as "none".
func (p Plan) Spec() string {
	var b strings.Builder
	add := func(key, val string) {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(key)
		b.WriteByte(':')
		b.WriteString(val)
	}
	if p.Seed != 0 {
		add("fseed", strconv.FormatInt(p.Seed, 10))
	}
	prob := func(key string, v float64) {
		if v > 0 {
			add(key, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	prob("drop", p.Drop)
	prob("dup", p.Dup)
	prob("corrupt", p.Corrupt)
	prob("delay", p.Delay)
	if p.MaxDelay != 0 {
		add("maxdelay", strconv.FormatUint(uint64(p.MaxDelay), 10))
	}
	prob("reorder", p.Reorder)
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// ParsePlan parses the token format produced by Spec. "none" and "" parse
// to the zero plan.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if s == "" || s == "none" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(field, ":")
		if !ok {
			return Plan{}, fmt.Errorf("faults: bad plan field %q (want key:value)", field)
		}
		switch key {
		case "fseed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: bad fseed %q: %v", val, err)
			}
			p.Seed = n
		case "maxdelay":
			n, err := strconv.ParseUint(val, 10, 63)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: bad maxdelay %q: %v", val, err)
			}
			p.MaxDelay = sim.Time(n)
		case "drop", "dup", "corrupt", "delay", "reorder":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f >= 0 && f <= 1) { // NaN fails both
				return Plan{}, fmt.Errorf("faults: bad probability %s=%q (want [0,1])", key, val)
			}
			switch key {
			case "drop":
				p.Drop = f
			case "dup":
				p.Dup = f
			case "corrupt":
				p.Corrupt = f
			case "delay":
				p.Delay = f
			case "reorder":
				p.Reorder = f
			}
		default:
			return Plan{}, fmt.Errorf("faults: unknown plan field %q", key)
		}
	}
	return p, nil
}

// Preset is a named fault plan for sweeps.
type Preset struct {
	Name string
	Plan Plan
}

// Presets are the standard chaos-sweep fault levels, from a clean fabric
// (adversarial accelerator only) to heavy combined loss, duplication,
// corruption, delay, and reordering. Seeds differ per preset so plans
// draw independent schedules even over identical traffic.
var Presets = []Preset{
	{Name: "clean", Plan: Plan{}},
	{Name: "lossy", Plan: Plan{Seed: 1011, Drop: 0.02, Dup: 0.02}},
	{Name: "chaotic", Plan: Plan{
		Seed: 2017, Drop: 0.03, Dup: 0.03, Corrupt: 0.05,
		Delay: 0.1, MaxDelay: 300, Reorder: 0.1,
	}},
}
